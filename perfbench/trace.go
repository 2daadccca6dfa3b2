package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// The traced run measures each layer from outside: it wraps both ends of
// every socket a caller uses and times the calls into the layers' public
// functions. Nothing inside the program is instrumented.

// sockStats counts one socket end's traffic. The fields are atomic because
// a cluster client's background repair goroutine shares its caller's
// sockets.
type sockStats struct {
	writes, writeNs, reads, readNs, bytes atomic.Int64
}

// tracedConn wraps one end of a socket. It implements wire.BuffersWriter,
// so a corked client flush still reaches the kernel as one writev.
type tracedConn struct {
	net.Conn
	st sockStats
	ct *callerTrace // client ends only: the caller that owns the socket
	// peer is the server end of the same socket, resolved lazily because
	// the server may accept after the client's dial returns. Guarded by
	// ct.mu.
	peer *sockStats
}

var _ wire.BuffersWriter = (*tracedConn)(nil)

// beginWrite counts a write before it is issued, so a server flush is
// visible to the caller before the caller can have read its bytes.
func (c *tracedConn) beginWrite() {
	c.st.writes.Add(1)
	if c.ct != nil && c.ct.readLast.Swap(false) {
		c.ct.rounds.Add(1)
	}
}

func (c *tracedConn) endWrite(t0 time.Time, n int64) {
	c.st.writeNs.Add(int64(time.Since(t0)))
	c.st.bytes.Add(n)
}

// Write times one write syscall.
func (c *tracedConn) Write(p []byte) (int, error) {
	c.beginWrite()
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.endWrite(t0, int64(n))
	return n, err
}

// WriteBuffers times one vectored flush, delegating to the wrapped
// connection so net.Buffers still uses writev.
func (c *tracedConn) WriteBuffers(v *net.Buffers) (int64, error) {
	c.beginWrite()
	t0 := time.Now()
	n, err := v.WriteTo(c.Conn)
	c.endWrite(t0, n)
	return n, err
}

// Read times one read syscall, including the wait for data to arrive.
func (c *tracedConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	c.st.readNs.Add(int64(time.Since(t0)))
	c.st.reads.Add(1)
	c.st.bytes.Add(int64(n))
	if c.ct != nil {
		c.ct.readLast.Store(true)
	}
	return n, err
}

// peerRegistry maps a client's local address to the server end of its
// socket, so a caller can read the server-side flushes of its own
// connections.
type peerRegistry struct {
	mu    sync.Mutex
	peers map[string]*sockStats
}

func newPeerRegistry() *peerRegistry {
	return &peerRegistry{peers: make(map[string]*sockStats)}
}

func (r *peerRegistry) put(addr string, st *sockStats) {
	r.mu.Lock()
	r.peers[addr] = st
	r.mu.Unlock()
}

func (r *peerRegistry) get(addr string) *sockStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peers[addr]
}

// tracedListener wraps the connections a server accepts while on is set.
// Behind the wrapper the server's countingWriter cannot reach writev (the
// net package's vectored-write interface is unexported), so a flush of
// several segments becomes one write per segment: traced
// server.flushes_per_batch overstates wherever values of 4 KiB or more
// travel.
type tracedListener struct {
	net.Listener
	reg *peerRegistry
	on  *atomic.Bool
}

// Accept wraps the accepted connection when tracing is on.
func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || !l.on.Load() {
		return c, err
	}
	tc := &tracedConn{Conn: c}
	l.reg.put(c.RemoteAddr().String(), &tc.st)
	return tc, nil
}

// callerTrace is one caller's view of its own sockets: the client ends it
// dialed and, through the registry, their server ends. rounds counts round
// trips: a write that follows a read starts a new one.
type callerTrace struct {
	reg      *peerRegistry
	rounds   atomic.Int64
	readLast atomic.Bool

	mu    sync.Mutex
	conns []*tracedConn
}

// dial opens one traced wire connection; it serves as the wire.Client
// constructor on node-read and as cluster.Options.Dial elsewhere.
func (ct *callerTrace) dial(addr string) (*wire.Client, error) {
	raw, err := net.DialTimeout("tcp", addr, wire.DefaultDialTimeout)
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{Conn: raw, ct: ct}
	ct.mu.Lock()
	ct.conns = append(ct.conns, tc)
	ct.mu.Unlock()
	return wire.NewClient(tc)
}

// sockTotals sums the counters of every socket of one caller.
type sockTotals struct {
	writes, writeNs, reads, readNs, bytes int64
	rounds                                int64
	srvWrites, srvWriteNs                 int64
}

func (ct *callerTrace) snapshot() sockTotals {
	s := sockTotals{rounds: ct.rounds.Load()}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	for _, c := range ct.conns {
		s.writes += c.st.writes.Load()
		s.writeNs += c.st.writeNs.Load()
		s.reads += c.st.reads.Load()
		s.readNs += c.st.readNs.Load()
		s.bytes += c.st.bytes.Load()
		if c.peer == nil {
			c.peer = ct.reg.get(c.LocalAddr().String())
		}
		if c.peer != nil {
			s.srvWrites += c.peer.writes.Load()
			s.srvWriteNs += c.peer.writeNs.Load()
		}
	}
	return s
}

// stages accumulates the per-GetBatch split of one traced pass. Every
// field is a sum over successful calls; dividing by calls gives the means
// the stage-sum check adds up.
type stages struct {
	calls                  int64
	callNs                 int64 // GetBatch wall time
	benchNs                int64 // the benchmark's visit callbacks inside the call
	selfNs                 int64 // call − callbacks − socket time, clamped at 0
	clamped                int64 // calls whose socket time exceeded the rest
	flushes, flushNs       int64
	reads, readNs          int64
	rounds                 int64
	srvFlushes, srvFlushNs int64
}

func (s *stages) add(o stages) {
	s.calls += o.calls
	s.callNs += o.callNs
	s.benchNs += o.benchNs
	s.selfNs += o.selfNs
	s.clamped += o.clamped
	s.flushes += o.flushes
	s.flushNs += o.flushNs
	s.reads += o.reads
	s.readNs += o.readNs
	s.rounds += o.rounds
	s.srvFlushes += o.srvFlushes
	s.srvFlushNs += o.srvFlushNs
}

// record adds one call bracketed by the before and after snapshots.
func (s *stages) record(call, bench time.Duration, b, a sockTotals) {
	flushNs, readNs := a.writeNs-b.writeNs, a.readNs-b.readNs
	self := int64(call) - int64(bench) - flushNs - readNs
	if self < 0 {
		s.clamped++
		self = 0
	}
	s.calls++
	s.callNs += int64(call)
	s.benchNs += int64(bench)
	s.selfNs += self
	s.flushes += a.writes - b.writes
	s.flushNs += flushNs
	s.reads += a.reads - b.reads
	s.readNs += readNs
	s.rounds += a.rounds - b.rounds
	s.srvFlushes += a.srvWrites - b.srvWrites
	s.srvFlushNs += a.srvWriteNs - b.srvWriteNs
}
