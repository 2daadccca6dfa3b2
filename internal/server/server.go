// Package server exposes a concurrent set-associative cache
// (internal/concurrent) over TCP using the wire protocol (internal/wire).
//
// The server is the production half of the paper's motivating use case: a
// sharded cache service whose lock granularity is the bucket. Each
// connection is served by one goroutine; requests are applied directly to
// the shared cache, so cross-connection contention is exactly per-bucket
// lock contention, and the α-tradeoff (fewer slots per bucket → more
// buckets → less contention, but more conflict misses) is measurable from
// the outside with cmd/cacheload.
//
// An online REHASH can be requested over the wire at any time; it uses the
// cache's incremental migration (Section 6.1 of the paper), so live traffic
// continues while items drain from the old hash function to the new one.
//
// Every stored value carries a monotonically increasing per-key version
// (protocol v4). User SETs assign versions and always win; maintenance
// SETs flagged VERSIONED carry the version their writer observed and are
// applied atomically only when strictly newer than the stored one —
// rejections answer VERSION_STALE and count in STATS StaleRepairs. The
// async maintenance queue applies its entries through the same check, so
// its depth no longer widens the window in which a delayed repair could
// reinstate a value a concurrent user SET already replaced.
//
// The server also holds the node's view of the cluster topology: a member
// list stamped with a monotonically increasing epoch, pushed at it by the
// cluster router or a joining peer (TOPOLOGY) and served back to anyone
// who asks (MEMBERS). Every response carries the current epoch, so routers
// piggyback staleness detection on ordinary traffic and refresh only when
// the epoch moves. The server itself never routes — topology is data it
// stores and spreads, which is what lets a client bootstrap a whole
// cluster view from one seed address.
package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/concurrent"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// DefaultRepairQueue is the depth of the bounded queue that async
// maintenance writes (SET with the ASYNC flag) drain through. Deep enough
// that read repair never sheds in healthy operation. The bound is a
// count, not a byte budget: worst-case queued memory is depth × value
// size, so operators running large values should size it down with
// SetRepairQueue.
const DefaultRepairQueue = 4096

// DefaultTombstoneTTL is how long a tombstone outlives the DEL that made
// it before the reaper removes it. The TTL bounds the window in which a
// lagging replica (or a replayed hint) could still carry the deleted key's
// old value: once every repair path has had TTL to run, the tombstone has
// nothing left to suppress. The default is ~10× the cluster's default
// anti-entropy period, so several full sweeps complete before any
// tombstone is reaped. Override with SetTombstoneTTL.
const DefaultTombstoneTTL = 5 * time.Minute

// DefaultTombstoneSweep is how often the background reaper scans for
// expired tombstones once any tombstone exists.
const DefaultTombstoneSweep = 30 * time.Second

// DefaultHintBudget bounds the bytes a node will hold in queued hints
// (HINT op) for dead peers. At the budget the oldest hint is dropped —
// safe, because hints are an optimization over anti-entropy, which
// repairs whatever a dropped hint would have. Override with
// SetHintBudget.
const DefaultHintBudget = 4 << 20

// DefaultHintReplay is how often the background replayer re-attempts
// delivery of queued hints to their targets. Override with
// SetHintReplayInterval (before the first hint arrives).
const DefaultHintReplay = 2 * time.Second

// DefaultSlowOpThreshold is the service time above which an operation is
// recorded in the slow-op ring. Loopback service times are microseconds,
// so 10ms marks something genuinely wrong — a stalled bucket lock, a
// value large enough to hurt, scheduler trouble — without the ring
// churning under healthy load. Override with SetSlowOpThreshold (cached
// -slow-op-threshold).
const DefaultSlowOpThreshold = 10 * time.Millisecond

// entry is the unified record the server stores in the cache: the payload
// plus a monotonically increasing per-key version, or — when born is
// nonzero — a tombstone: the versioned fact that the key was deleted, kept
// so no older copy of the value can be reinstated by delayed maintenance.
// Unconditional (user) SETs assign max(wall-clock nanos, stored+1) —
// per-key monotonic by construction, and wall-clock anchored so versions
// assigned on different nodes for successive writes of the same key
// compare the way their real-time order did. Conditional (VERSIONED)
// writes carry the version the writer observed and store it verbatim, so a
// value keeps its origin version as maintenance copies it between nodes.
// DEL is just the unconditional-write rule producing a tombstone, and a
// replicated tombstone (SET TOMBSTONE) is the conditional rule producing
// one — deletes compete in the same version order as every other write.
type entry struct {
	ver uint64
	// born is zero for a live value; for a tombstone it is the wall-clock
	// nanosecond the tombstone was created here, which starts the reap TTL
	// clock (val is nil). It is creation time on *this node* — a tombstone
	// copied by maintenance gets a fresh born, so its TTL restarts, which
	// only ever delays reaping, never loses the deletion.
	born int64
	val  []byte
}

// tomb reports whether the record is a tombstone.
func (e *entry) tomb() bool { return e.born != 0 }

// repairWrite is one queued async maintenance write. It keeps the SET's
// flags and observed version so the version check runs when the queue
// drains — the apply, however delayed, goes through the same conditional
// path as a synchronous write, which is what keeps queue depth from
// widening the lost-update window. enq stamps admission so the drain can
// record how long the write waited (the REPAIR_WAIT histogram).
type repairWrite struct {
	key   uint64
	val   []byte
	flags wire.SetFlags
	ver   uint64
	enq   time.Time

	// traced/trace carry the originating request's trace context across
	// the queue, so the drain-time apply of a sampled write still records
	// a span joined to the request that caused it — queue wait included.
	traced bool
	trace  wire.TraceContext
}

// Server serves a concurrent.Cache over TCP.
type Server struct {
	cache *concurrent.Cache

	// sets and repairSets split write traffic by the SET flag byte: user
	// writes versus replica maintenance (read repair, warm-up, migration).
	// Keeping them at the server rather than in the cache means repair
	// churn never skews the cache-level counters the α experiments read.
	// staleRepairs counts VERSIONED writes rejected because the stored
	// version was newer — each one a lost-update race the check won.
	sets         atomic.Uint64
	repairSets   atomic.Uint64
	staleRepairs atomic.Uint64

	// Topology state: the member list under topoMu, the epoch mirrored in
	// an atomic so every response handler can stamp it without locking.
	topoMu  sync.Mutex
	members []string
	epoch   atomic.Uint64

	// keysChunk overrides the KEYS stream chunk size (0 = DefaultKeysChunk);
	// tests shrink it to exercise multi-chunk streams cheaply.
	keysChunk atomic.Int64

	// Async maintenance queue (SET ASYNC): created lazily on first use so
	// its depth is configurable, drained by one background goroutine,
	// shedding (and counting) when full so maintenance floods never stall
	// user traffic. repairCh holds a chan repairWrite once created (an
	// atomic.Value because STATS reads its depth concurrently with the
	// lazy creation); repairStop/repairDone bracket the worker's lifetime.
	repairOnce     sync.Once
	repairCh       atomic.Value
	repairDepth    int
	repairDepthSet bool
	repairsShed    atomic.Uint64
	repairStop     chan struct{}
	repairDone     chan struct{}

	// Flight recorder (protocol v5). opHists holds one service-time
	// histogram per opcode, indexed by the op byte; repairWait measures
	// enqueue→apply of async maintenance writes; queueHigh tracks the
	// maintenance queue's high-water depth (the peak STATS' point-in-time
	// RepairQueueDepth misses between polls). All recording is lock-free
	// and allocation-free (internal/telemetry), so it stays on even under
	// benchmark load.
	opHists       [int(wire.OpHint) + 1]telemetry.Histogram
	repairWait    telemetry.Histogram
	queueHigh     telemetry.HighWater
	bytesIn       telemetry.Counter
	bytesOut      telemetry.Counter
	connsAccepted telemetry.Counter
	slowLog       *telemetry.SlowLog
	slowThreshold atomic.Int64 // nanoseconds; ≤0 disables the slow-op log

	// Lease table (protocol v7, see lease.go): per-key fill-lease state
	// under its own mutex. leaseLive (outstanding tokens) and leaseEntries
	// (table size) are mirrored in atomics so the SET and DEL hot paths
	// can skip the mutex entirely while no lease exists — a workload that
	// never sends GETL pays one atomic load per write, nothing more.
	leaseMu       sync.Mutex
	leases        map[uint64]*lease
	leaseTokens   uint64 // last token issued; ++ under leaseMu, so never 0
	leaseLive     atomic.Int64
	leaseEntries  atomic.Int64
	leaseTTL      atomic.Int64 // nanoseconds
	leasesGranted atomic.Uint64
	leasesExpired atomic.Uint64
	staleServes   atomic.Uint64

	// Tombstone state (protocol v8). tombstones approximates the live
	// tombstone count (a policy eviction of a tombstone is invisible here,
	// so the gauge can read high until the next reap scan resyncs it);
	// tombstonesReaped counts TTL expiries the reaper removed. The reaper
	// goroutine starts lazily on the first tombstone and stops with the
	// server.
	tombstones       atomic.Int64
	tombstonesReaped atomic.Uint64
	tombstoneTTL     atomic.Int64 // nanoseconds
	reapOnce         sync.Once
	reapStarted      atomic.Bool
	reapDone         chan struct{}

	// Hinted-handoff state (protocol v8): writes a router could not land
	// on a dead owner, parked here by a live peer (HINT op) and replayed —
	// as conditional versioned writes — when the owner answers again. One
	// FIFO across targets under hintMu, byte-budgeted, oldest dropped at
	// the budget. The replayer goroutine starts lazily on the first hint.
	hintMu        sync.Mutex
	hints         []hint
	hintBytes     int
	hintBudget    int
	hintBudgetSet bool
	hintsQueued   atomic.Uint64
	hintsReplayed atomic.Uint64
	hintInterval  atomic.Int64 // nanoseconds
	hintOnce      sync.Once
	hintStarted   atomic.Bool
	hintDone      chan struct{}
	hintDial      func(addr string) (*wire.Client, error)

	// Tracing and hot-key attribution (protocol v6). spans retains one
	// record per *sampled* traced request (plus drained async writes on a
	// sampled trace's behalf); hotKeys holds one always-on space-saving
	// sketch per traffic class, indexed by the wire hot-key class byte.
	// Both record allocation-free, like the rest of the flight recorder.
	spans   *telemetry.SpanRing
	hotKeys [int(wire.HotEvict) + 1]*telemetry.TopK

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New wraps cache in a server. The cache may be shared with in-process
// users; the server adds no locking of its own beyond the cache's.
func New(cache *concurrent.Cache) *Server {
	s := &Server{
		cache:      cache,
		conns:      make(map[net.Conn]struct{}),
		repairStop: make(chan struct{}),
		repairDone: make(chan struct{}),
		reapDone:   make(chan struct{}),
		hintDone:   make(chan struct{}),
		hintDial:   wire.Dial,
		slowLog:    telemetry.NewSlowLog(0),
		spans:      telemetry.NewSpanRing(0),
	}
	for class := wire.HotGet; class <= wire.HotEvict; class++ {
		s.hotKeys[class] = telemetry.NewTopK(0)
	}
	s.slowThreshold.Store(int64(DefaultSlowOpThreshold))
	s.leaseTTL.Store(int64(DefaultLeaseTTL))
	s.tombstoneTTL.Store(int64(DefaultTombstoneTTL))
	s.hintInterval.Store(int64(DefaultHintReplay))
	return s
}

// SetTombstoneTTL configures how long tombstones survive before the
// reaper removes them; d ≤ 0 restores DefaultTombstoneTTL.
func (s *Server) SetTombstoneTTL(d time.Duration) {
	if d <= 0 {
		d = DefaultTombstoneTTL
	}
	s.tombstoneTTL.Store(int64(d))
}

// SetHintBudget configures the byte budget for queued hints (n == 0
// disables hint storage: every HINT is accepted and dropped). Must be
// called before the server receives traffic; the default is
// DefaultHintBudget.
func (s *Server) SetHintBudget(n int) {
	s.hintBudget = n
	s.hintBudgetSet = true
}

// SetHintReplayInterval configures how often queued hints are re-attempted;
// d ≤ 0 restores DefaultHintReplay. Must be set before the first hint
// arrives (the replayer reads it once at start).
func (s *Server) SetHintReplayInterval(d time.Duration) {
	if d <= 0 {
		d = DefaultHintReplay
	}
	s.hintInterval.Store(int64(d))
}

// SetSlowOpThreshold configures the service time above which an op is
// recorded in the slow-op ring; d ≤ 0 disables the ring. The default is
// DefaultSlowOpThreshold.
func (s *Server) SetSlowOpThreshold(d time.Duration) { s.slowThreshold.Store(int64(d)) }

// SetKeysChunk overrides the number of keys per KEYS stream frame (0
// restores wire.DefaultKeysChunk). Tests shrink it to exercise multi-chunk
// streams without millions of residents.
func (s *Server) SetKeysChunk(n int) { s.keysChunk.Store(int64(n)) }

// SetRepairQueue configures the async maintenance queue depth. n > 0 sets
// the depth, n == 0 disables the queue entirely so every ASYNC write is
// shed (a test hook for the backpressure path). Must be called before the
// server receives traffic; the default is DefaultRepairQueue.
func (s *Server) SetRepairQueue(n int) {
	s.repairDepth = n
	s.repairDepthSet = true
}

// Topology returns the server's current cluster view. A server that was
// never told one reports epoch 0 and no members.
func (s *Server) Topology() wire.Topology {
	s.topoMu.Lock()
	defer s.topoMu.Unlock()
	return wire.Topology{Epoch: s.epoch.Load(), Members: append([]string(nil), s.members...)}
}

// SetTopology unconditionally installs t as the server's cluster view;
// cmd/cached uses it to seed a standalone node with its own address. Peers
// pushing over the wire go through the adoption rule instead (OfferTopology).
func (s *Server) SetTopology(t wire.Topology) {
	s.topoMu.Lock()
	defer s.topoMu.Unlock()
	s.members = append([]string(nil), t.Members...)
	s.epoch.Store(t.Epoch)
}

// OfferTopology applies the wire adoption rule to a pushed topology: adopt
// it when it is strictly newer than the held view, or when no view is held
// yet; otherwise keep the current one. Offers with no members are never
// adopted — holding a bare epoch over an empty member list would let a
// later, lower epoch "win" and roll the monotonic epoch backwards. It
// returns the view the server holds after the offer, which the TOPOLOGY
// response reports so a losing pusher learns the newer topology in the
// same round trip.
func (s *Server) OfferTopology(t wire.Topology) wire.Topology {
	s.topoMu.Lock()
	defer s.topoMu.Unlock()
	if len(t.Members) > 0 && (t.Epoch > s.epoch.Load() || len(s.members) == 0) {
		s.members = append([]string(nil), t.Members...)
		s.epoch.Store(t.Epoch)
	}
	return wire.Topology{Epoch: s.epoch.Load(), Members: append([]string(nil), s.members...)}
}

// Cache returns the underlying cache (used by tests and embedders).
func (s *Server) Cache() *concurrent.Cache { return s.cache }

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. It always closes ln.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// Addr returns the listening address, once Serve has been called.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes all live connections, and waits for their
// handlers — and the async maintenance worker, if one ever started — to
// finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	close(s.repairStop)
	if s.repairQueue() != nil {
		<-s.repairDone
	}
	if s.reapStarted.Load() {
		<-s.reapDone
	}
	if s.hintStarted.Load() {
		<-s.hintDone
	}
	return err
}

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()

	s.connsAccepted.Add(1)
	r := wire.NewReaderSize(countingReader{conn, &s.bytesIn}, connReadBufSize)
	w := wire.NewWriter(countingWriter{conn, &s.bytesOut})
	if err := r.ReadPreamble(); err != nil {
		if errors.Is(err, wire.ErrVersionMismatch) {
			// Tell the peer *why* before closing: the ERROR frame layout is
			// stable across revisions, so even an older client reads the
			// documented version error instead of a bare EOF.
			w.WriteResponse(&wire.Response{
				Status: wire.StatusError, Epoch: s.epoch.Load(), Err: err.Error(),
			})
			w.Flush()
		}
		return
	}
	// One decode target and one answer per connection, reused for every
	// request: both are overwritten whole on each use.
	var (
		req  wire.Request
		resp wire.Response
	)
	for {
		if err := r.ReadRequest(&req); err != nil {
			return // clean EOF or protocol error; either way the conn is done
		}
		// Service time: request decoded → response encoded. The clock
		// starts after ReadRequest so idle wait between pipelined requests
		// never pollutes the histograms. Both ends read only the monotonic
		// clock.
		t0 := time.Since(clockBase)
		var ver uint64
		status := wire.StatusKeys
		if req.Op == wire.OpKeys {
			// KEYS answers with a stream of chunk frames, not one response.
			if err := s.streamKeys(w); err != nil {
				return
			}
		} else {
			s.apply(&req, &resp)
			resp.Epoch = s.epoch.Load()
			ver = resp.Version
			status = resp.Status
			if err := w.WriteResponse(&resp); err != nil {
				return
			}
		}
		s.observe(&req, status, ver, time.Since(clockBase)-t0)
		// Pipelining: only pay the syscall when the client has no more
		// requests already buffered.
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// clockBase anchors the service-time clock: time.Since on a Time carrying
// a monotonic reading reads only the monotonic clock, which is cheaper than
// time.Now (that one reads the wall clock too).
var clockBase = time.Now()

// connReadBufSize sizes each connection's wire.Reader stream buffer.
// Chosen from measurement, not defaults (PR 9 / hypotheses/H3): request
// frames are tiny (a GET is 13 bytes framed), so what matters is how
// many pipelined requests one read syscall drains. 64 KiB holds ~4500
// GET frames or a ~1000-deep batch of 64-byte SETs — comfortably above
// the deepest pipeline the harnesses drive — and costs 64 KiB per
// connection, which at the accept rates this server sees is noise next
// to the cache itself.
const connReadBufSize = 64 << 10

// countingReader and countingWriter sit between the connection and the
// wire codecs, feeding the BYTES_IN/BYTES_OUT counters. They count per
// syscall (the codec layers above batch frames), so the cost is one
// atomic add per read/write — and one per whole vectored flush — not
// per byte or per frame.
type countingReader struct {
	r io.Reader
	c *telemetry.Counter
}

// Read forwards to the wrapped reader and counts the bytes delivered.
func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(uint64(n))
	return n, err
}

type countingWriter struct {
	w io.Writer
	c *telemetry.Counter
}

// Write forwards to the wrapped writer and counts the bytes sent.
func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(uint64(n))
	return n, err
}

// WriteBuffers lets the wire.Writer's corked flush reach the connection
// as one vectored write (writev) instead of one Write syscall per
// segment — without it, wrapping the conn in a byte counter would undo
// the batching the codec set up. A wrapped conn that is itself a wrapper
// (it implements wire.BuffersWriter) gets the whole flush too; a bare
// *net.TCPConn gets writev from net.Buffers.WriteTo.
func (cw countingWriter) WriteBuffers(v *net.Buffers) (n int64, err error) {
	if bw, ok := cw.w.(wire.BuffersWriter); ok {
		n, err = bw.WriteBuffers(v)
	} else {
		n, err = v.WriteTo(cw.w)
	}
	cw.c.Add(uint64(n))
	return n, err
}

// observe records one request's service time into the per-op histogram,
// its key into the op class's hot-key sketch, a span when the request
// was sampled, and — when it crossed the slow threshold — a slow-op
// record carrying the trace ID (all-zero when untraced).
func (s *Server) observe(req *wire.Request, status wire.Status, ver uint64, d time.Duration) {
	op := int(req.Op)
	if op <= 0 || op >= len(s.opHists) {
		return // unknown op: answered with ERROR, nothing to attribute
	}
	s.opHists[op].Record(d)
	var kh uint64
	switch req.Op {
	case wire.OpGet, wire.OpGetLease:
		kh = telemetry.HashKey(req.Key)
		s.hotKeys[wire.HotGet].Record(kh)
	case wire.OpSet:
		kh = telemetry.HashKey(req.Key)
		// The SET class tracks user traffic; maintenance re-SETs of a key
		// the cluster already ranked hot would double-count it.
		if req.Flags&wire.SetFlagRepair == 0 {
			s.hotKeys[wire.HotSet].Record(kh)
		}
	case wire.OpDel:
		kh = telemetry.HashKey(req.Key)
		s.hotKeys[wire.HotDel].Record(kh)
	}
	if req.Traced && req.Trace.Sampled() {
		s.spans.Append(telemetry.Span{
			Op:            byte(req.Op),
			Status:        byte(status),
			TraceID:       req.Trace.ID,
			KeyHash:       kh,
			DurationNanos: uint64(d),
			UnixNanos:     uint64(time.Now().UnixNano()),
		})
	}
	thr := s.slowThreshold.Load()
	if thr <= 0 || int64(d) < thr {
		return
	}
	s.slowLog.Append(telemetry.SlowOp{
		Op:            byte(req.Op),
		KeyHash:       kh,
		DurationNanos: uint64(d),
		Version:       ver,
		UnixNanos:     uint64(time.Now().UnixNano()),
		TraceID:       req.Trace.ID,
	})
}

// MetricsSnapshot assembles the flight-recorder sections selected by
// flags — the payload of a METRICS response, also served as JSON by
// cached's -debug-addr endpoint. Histograms with no samples are omitted.
func (s *Server) MetricsSnapshot(flags wire.MetricsFlags) *wire.Metrics {
	m := &wire.Metrics{Flags: flags}
	if flags&wire.MetricsHistograms != 0 {
		for op := int(wire.OpGet); op < len(s.opHists); op++ {
			if snap := s.opHists[op].Snapshot(); snap.Count > 0 {
				m.Hists = append(m.Hists, wire.OpHist{ID: byte(op), Snap: snap})
			}
		}
		if snap := s.repairWait.Snapshot(); snap.Count > 0 {
			m.Hists = append(m.Hists, wire.OpHist{ID: wire.HistRepairWait, Snap: snap})
		}
	}
	if flags&wire.MetricsCounters != 0 {
		m.Counters = []wire.MetricCounter{
			{ID: wire.CounterBytesIn, Value: s.bytesIn.Load()},
			{ID: wire.CounterBytesOut, Value: s.bytesOut.Load()},
			{ID: wire.CounterSlowOps, Value: s.slowLog.Total()},
			{ID: wire.CounterConns, Value: s.connsAccepted.Load()},
		}
	}
	if flags&wire.MetricsSlowOps != 0 {
		m.SlowOps = s.slowLog.Snapshot()
	}
	if flags&wire.MetricsTraces != 0 {
		m.Spans = s.spans.Snapshot()
	}
	if flags&wire.MetricsHotKeys != 0 {
		for class := wire.HotGet; class <= wire.HotEvict; class++ {
			if snap := s.hotKeys[class].Snapshot(); len(snap) > 0 {
				m.HotKeys = append(m.HotKeys, wire.HotKeyClass{Class: class, Keys: snap.Top(wire.MaxHotKeys)})
			}
		}
	}
	return m
}

// streamKeys writes the chunked KEYS response: a racy snapshot of the
// resident records — key, version, tombstone bit — split into bounded
// frames, ending in an empty terminator frame. Chunking keeps every frame
// far below MaxFrame, so a node's enumerable residency is no longer capped
// by the frame limit. Carrying versions and tombstones makes one KEYS pass
// sufficient for replica comparison: anti-entropy diffs two streams
// without a per-key read.
func (s *Server) streamKeys(w *wire.Writer) error {
	recs := make([]wire.KeyRec, 0, s.cache.Len())
	s.cache.Entries(func(key uint64, v interface{}) {
		rec := wire.KeyRec{Key: key}
		if e, ok := v.(*entry); ok {
			rec.Version = e.ver
			rec.Tombstone = e.tomb()
		}
		recs = append(recs, rec)
	})
	chunk := int(s.keysChunk.Load())
	if chunk <= 0 {
		chunk = wire.DefaultKeysChunk
	}
	for off := 0; off < len(recs); off += chunk {
		end := off + chunk
		if end > len(recs) {
			end = len(recs)
		}
		if err := w.WriteResponse(&wire.Response{
			Status: wire.StatusKeys, Keys: recs[off:end], Epoch: s.epoch.Load(),
		}); err != nil {
			return err
		}
	}
	return w.WriteResponse(&wire.Response{Status: wire.StatusKeys, Epoch: s.epoch.Load()})
}

// apply executes one request against the cache, writing the answer into
// resp; every field of resp is overwritten.
func (s *Server) apply(req *wire.Request, resp *wire.Response) {
	switch req.Op {
	case wire.OpGet, wire.OpGetLease:
		v, ok := s.cache.Get(req.Key)
		if ok {
			switch e := v.(type) {
			case *entry:
				if !e.tomb() {
					// Version is set apart: with it in the literal, the
					// compiler builds the literal in a temporary and copies
					// it into *resp; without, it is built in place.
					*resp = wire.Response{Status: wire.StatusHit, Value: e.val}
					resp.Version = e.ver
					return
				}
				// A tombstone is a resident record of an absence: reads see
				// a miss (and may take a fresh fill lease — a post-delete
				// load from the origin is a legitimate new write, it is only
				// pre-delete copies the tombstone exists to block).
			case []byte:
				// Values stored by in-process embedders sharing the cache
				// carry no version; serve them at version 0 so any versioned
				// write supersedes them.
				*resp = wire.Response{Status: wire.StatusHit, Value: e}
				return
			default:
				*resp = wire.Response{Status: wire.StatusError,
					Err: fmt.Sprintf("non-wire value of type %T cached under key %d", v, req.Key)}
				return
			}
		}
		if req.Op == wire.OpGetLease {
			*resp = s.leaseMiss(req.Key)
		} else {
			*resp = wire.Response{Status: wire.StatusMiss}
		}
	case wire.OpSet:
		if req.Flags&wire.SetFlagRepair != 0 {
			s.repairSets.Add(1)
		} else {
			s.sets.Add(1)
		}
		// The request value aliases the reader's stream buffer; copy before
		// it escapes into the cache or the maintenance queue.
		val := append([]byte(nil), req.Value...)
		switch {
		case req.Flags&wire.SetFlagLease != 0:
			*resp = s.leaseFill(req.Key, req.LeaseToken, val)
		case req.Flags&wire.SetFlagAsync != 0:
			// OK means accepted: the write is applied (or shed) by the
			// background worker, so maintenance floods never stall the
			// request path. Eviction and the version outcome are unknowable
			// here; a VERSIONED write rejected at drain time still counts in
			// StaleRepairs.
			s.enqueueRepair(repairWrite{
				key: req.Key, val: val, flags: req.Flags, ver: req.Version, enq: time.Now(),
				traced: req.Traced, trace: req.Trace,
			})
			*resp = wire.Response{Status: wire.StatusOK}
		default:
			applied, ver, evicted := s.store(req.Key, req.Flags, req.Version, val)
			if applied {
				*resp = wire.Response{Status: wire.StatusOK, Evicted: evicted, Version: ver}
			} else {
				*resp = wire.Response{Status: wire.StatusVersionStale, Version: ver}
			}
		}
	case wire.OpDel:
		// Drop the key's lease state *before* the tombstone store: killing
		// the outstanding token first means no fill that observed the
		// pre-delete world can land after the delete, and the retained
		// stale copy can never be hinted again. (A lease granted *after*
		// the tombstone is a fresh post-delete load and is allowed to
		// overwrite it — see storeLeaseFill.)
		if s.leaseEntries.Load() > 0 {
			s.dropLease(req.Key)
		}
		*resp = s.applyDel(req.Key)
	case wire.OpHint:
		// The value aliases the reader's stream buffer; copy before it
		// outlives this request in the hint queue.
		var val []byte
		if len(req.Value) > 0 {
			val = append([]byte(nil), req.Value...)
		}
		s.queueHint(req.Target, req.Key, req.Tombstone, req.Version, val)
		*resp = wire.Response{Status: wire.StatusOK}
	case wire.OpStats:
		*resp = wire.Response{Status: wire.StatusStats, Stats: s.stats(req.Detail)}
	case wire.OpRehash:
		s.cache.Rehash()
		*resp = wire.Response{Status: wire.StatusOK}
	case wire.OpMembers:
		*resp = wire.Response{Status: wire.StatusMembers, Topology: s.Topology()}
	case wire.OpTopology:
		*resp = wire.Response{Status: wire.StatusMembers, Topology: s.OfferTopology(req.Topology)}
	case wire.OpMetrics:
		*resp = wire.Response{Status: wire.StatusMetrics, Metrics: s.MetricsSnapshot(req.MetricsFlags)}
	default:
		*resp = wire.Response{Status: wire.StatusError, Err: fmt.Sprintf("unknown op %v", req.Op)}
	}
}

// store applies one SET to the cache as a single atomic read-check-write
// under the owning bucket's lock (concurrent.Cache.Update), so no
// concurrent write can interleave between the version comparison and the
// overwrite.
//
// An unconditional SET (no VERSIONED flag) always stores, assigning the
// key the version max(wall-clock nanos, stored+1) — strictly above
// everything this node ever held for the key, and above any version an
// earlier write of the key was assigned elsewhere whose real-time order
// precedes this one. A VERSIONED SET stores its carried version verbatim,
// and only when that is strictly newer than the stored one; a rejection
// reports the winning version and bumps staleRepairs. A TOMBSTONE SET is
// the VERSIONED rule storing a tombstone record instead of a value —
// replicated deletes lose to anything newer, exactly like replicated
// writes.
func (s *Server) store(key uint64, flags wire.SetFlags, reqVer uint64, val []byte) (applied bool, ver uint64, evicted bool) {
	conditional := flags&wire.SetFlagVersioned != 0
	tombstone := flags&wire.SetFlagTombstone != 0
	now := time.Now().UnixNano()
	var wasTomb bool
	stored, _, evicted := s.cache.Update(key, func(old interface{}, present bool) (interface{}, bool) {
		var cur uint64
		wasTomb = false
		if present {
			if e, ok := old.(*entry); ok {
				cur = e.ver
				wasTomb = e.tomb()
			}
		}
		if conditional {
			if present && reqVer <= cur {
				ver = cur
				return nil, false
			}
			ver = reqVer
			if tombstone {
				return &entry{ver: ver, born: now}, true
			}
			return &entry{ver: ver, val: val}, true
		}
		ver = uint64(now)
		if ver <= cur {
			ver = cur + 1
		}
		return &entry{ver: ver, val: val}, true
	})
	if !stored {
		s.staleRepairs.Add(1)
		return false, ver, false
	}
	s.noteTombstoneFlip(tombstone, wasTomb)
	if evicted {
		// Conflict-pressure attribution: the EVICT class ranks keys whose
		// writes displace residents, the observable proxy for bucket
		// conflict pressure (the α tradeoff, seen per key).
		s.hotKeys[wire.HotEvict].Record(telemetry.HashKey(key))
	}
	// An applied write supersedes any fill lease in flight for the key:
	// kill its token and refresh the retained stale copy (lease.go) — or,
	// for an applied tombstone, drop the entry outright (delete semantics:
	// nothing the table retains may outlive the deletion). The atomic gate
	// keeps lease-free workloads off the table mutex.
	if s.leaseEntries.Load() > 0 {
		if tombstone {
			s.dropLease(key)
		} else {
			s.invalidateLease(key, ver, val)
		}
	}
	return true, ver, evicted
}

// applyDel executes DEL as an unconditional versioned write of a
// tombstone: the key's history ends in a record that says "deleted at
// version v" rather than in silence, so any maintenance copy of an older
// value — delayed repair, warm-up chunk, replayed hint, anti-entropy —
// loses the version comparison instead of resurrecting the value. DEL
// always answers OK; Evicted reports whether a live value was present, and
// Version carries the tombstone's assigned version. The tombstone is
// written even when the key was absent here: this replica may simply be
// the one that missed the write, and the tombstone is what stops
// anti-entropy from copying the value back from a replica that has it.
func (s *Server) applyDel(key uint64) wire.Response {
	now := time.Now().UnixNano()
	var present, wasTomb bool
	var ver uint64
	_, _, evicted := s.cache.Update(key, func(old interface{}, has bool) (interface{}, bool) {
		var cur uint64
		wasTomb = false
		if has {
			if e, ok := old.(*entry); ok {
				cur = e.ver
				wasTomb = e.tomb()
			}
		}
		present = has && !wasTomb
		ver = uint64(now)
		if ver <= cur {
			ver = cur + 1
		}
		return &entry{ver: ver, born: now}, true
	})
	s.noteTombstoneFlip(true, wasTomb)
	if evicted {
		s.hotKeys[wire.HotEvict].Record(telemetry.HashKey(key))
	}
	return wire.Response{Status: wire.StatusOK, Evicted: present, Version: ver}
}

// noteTombstoneFlip maintains the tombstone gauge across an applied write
// and lazily starts the reaper the first time a tombstone exists.
func (s *Server) noteTombstoneFlip(isTomb, wasTomb bool) {
	if isTomb == wasTomb {
		return
	}
	if isTomb {
		s.tombstones.Add(1)
		s.startReaper()
	} else {
		s.tombstones.Add(-1)
	}
}

// startReaper launches the background tombstone reaper (once).
func (s *Server) startReaper() {
	s.reapOnce.Do(func() {
		s.reapStarted.Store(true)
		go func() {
			defer close(s.reapDone)
			t := time.NewTicker(DefaultTombstoneSweep)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.ReapTombstones()
				case <-s.repairStop:
					return
				}
			}
		}()
	})
}

// ReapTombstones removes every tombstone older than the tombstone TTL and
// returns how many it reaped. The scan snapshots expired keys bucket by
// bucket, then removes each with a conditional delete that re-checks the
// record under the bucket lock — a key revived (or re-deleted, restarting
// its TTL) between scan and delete is left alone. The sweep also resyncs
// the tombstone gauge, which can drift high when cache policy evicts a
// tombstone wholesale. Runs on the background ticker; exported so tests
// and operators can force a deterministic sweep.
func (s *Server) ReapTombstones() int {
	ttl := time.Duration(s.tombstoneTTL.Load())
	cut := time.Now().Add(-ttl).UnixNano()
	var expired []uint64
	live := int64(0)
	s.cache.Entries(func(key uint64, v interface{}) {
		if e, ok := v.(*entry); ok && e.tomb() {
			if e.born <= cut {
				expired = append(expired, key)
			} else {
				live++
			}
		}
	})
	n := 0
	for _, key := range expired {
		if s.cache.DeleteIf(key, func(v interface{}) bool {
			e, ok := v.(*entry)
			return ok && e.tomb() && e.born <= cut
		}) {
			n++
		}
	}
	if n > 0 {
		s.tombstonesReaped.Add(uint64(n))
	}
	// Resync rather than decrement: the scan counted what is actually
	// resident, which silently repairs any drift from policy evictions.
	s.tombstones.Store(live + int64(len(expired)-n))
	return n
}

// hint is one parked write awaiting a dead owner's return: the target
// that should hold it, and the versioned record (value or tombstone) to
// replay there as a conditional versioned write. Replay is idempotent —
// the target's version check rejects anything it already has newer.
type hint struct {
	target string
	key    uint64
	ver    uint64
	tomb   bool
	val    []byte
}

// hintCost is a hint's accounting size against the byte budget: the value
// plus a fixed overhead so a flood of tiny (or tombstone) hints cannot
// queue unboundedly just because the values are empty.
func hintCost(h hint) int { return len(h.val) + 64 }

// queueHint parks one hinted write for target, dropping the oldest queued
// hints when the byte budget is exceeded (dropping is safe: anti-entropy
// repairs whatever a hint would have). Starts the replayer on first use.
func (s *Server) queueHint(target string, key uint64, tomb bool, ver uint64, val []byte) {
	budget := s.hintBudget
	if !s.hintBudgetSet {
		budget = DefaultHintBudget
	}
	h := hint{target: target, key: key, ver: ver, tomb: tomb, val: val}
	s.hintMu.Lock()
	s.hints = append(s.hints, h)
	s.hintBytes += hintCost(h)
	for s.hintBytes > budget && len(s.hints) > 0 {
		s.hintBytes -= hintCost(s.hints[0])
		s.hints = s.hints[1:]
	}
	s.hintMu.Unlock()
	s.hintsQueued.Add(1)
	s.startHintReplayer()
}

// startHintReplayer launches the background hint replayer (once).
func (s *Server) startHintReplayer() {
	s.hintOnce.Do(func() {
		s.hintStarted.Store(true)
		interval := time.Duration(s.hintInterval.Load())
		go func() {
			defer close(s.hintDone)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.ReplayHints()
				case <-s.repairStop:
					return
				}
			}
		}()
	})
}

// ReplayHints attempts delivery of every queued hint to its target, and
// returns how many landed. A target that cannot be dialed keeps its hints
// for the next attempt; a response — OK or VERSION_STALE alike — counts
// the hint replayed, because a stale rejection means the target already
// holds something newer, which is the same outcome delivered. Runs on the
// background ticker; exported so tests and operators can force a
// deterministic replay.
func (s *Server) ReplayHints() int {
	total := 0
	for _, target := range s.hintTargets() {
		total += s.replayTarget(target)
	}
	return total
}

// hintTargets returns the distinct targets with queued hints, in
// first-queued order.
func (s *Server) hintTargets() []string {
	s.hintMu.Lock()
	defer s.hintMu.Unlock()
	var out []string
	for _, h := range s.hints {
		seen := false
		for _, t := range out {
			if t == h.target {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, h.target)
		}
	}
	return out
}

// takeHints removes and returns every queued hint for target, preserving
// order. The caller replays them outside the lock and requeues on failure
// — conditional versioned replay makes a duplicate or reordered delivery
// harmless, so crashing between take and replay costs only the hints.
func (s *Server) takeHints(target string) []hint {
	s.hintMu.Lock()
	defer s.hintMu.Unlock()
	var took []hint
	rest := s.hints[:0]
	for _, h := range s.hints {
		if h.target == target {
			took = append(took, h)
			s.hintBytes -= hintCost(h)
		} else {
			rest = append(rest, h)
		}
	}
	s.hints = rest
	return took
}

// requeueHints returns undelivered hints to the queue (at the back —
// order across requeues is irrelevant, the version check arbitrates).
func (s *Server) requeueHints(hints []hint) {
	s.hintMu.Lock()
	defer s.hintMu.Unlock()
	for _, h := range hints {
		s.hints = append(s.hints, h)
		s.hintBytes += hintCost(h)
	}
}

// replayTarget delivers target's queued hints as one pipelined batch of
// conditional versioned maintenance writes, returning how many were
// acknowledged. Any transport failure requeues the whole batch.
func (s *Server) replayTarget(target string) int {
	hints := s.takeHints(target)
	if len(hints) == 0 {
		return 0
	}
	cl, err := s.hintDial(target)
	if err != nil {
		s.requeueHints(hints)
		return 0
	}
	defer cl.Close()
	for _, h := range hints {
		if h.tomb {
			err = cl.EnqueueSetTombstone(h.key, wire.SetFlagRepair, h.ver)
		} else {
			err = cl.EnqueueSetVersioned(h.key, wire.SetFlagRepair, h.ver, h.val)
		}
		if err != nil {
			s.requeueHints(hints)
			return 0
		}
	}
	if err := cl.Flush(); err != nil {
		s.requeueHints(hints)
		return 0
	}
	var resp wire.Response
	for i := range hints {
		if err := cl.ReadResponse(&resp); err != nil {
			s.requeueHints(hints[i:])
			n := i
			s.hintsReplayed.Add(uint64(n))
			return n
		}
	}
	s.hintsReplayed.Add(uint64(len(hints)))
	return len(hints)
}

// HintBacklog reports the queued hint count and byte total (test hook).
func (s *Server) HintBacklog() (n, bytes int) {
	s.hintMu.Lock()
	defer s.hintMu.Unlock()
	return len(s.hints), s.hintBytes
}

// repairQueue returns the async maintenance channel, or nil when none was
// created (no async write arrived yet, or the queue is disabled).
func (s *Server) repairQueue() chan repairWrite {
	ch, _ := s.repairCh.Load().(chan repairWrite)
	return ch
}

// enqueueRepair hands an async maintenance write to the background worker,
// shedding it (counted) when the queue is full or disabled.
func (s *Server) enqueueRepair(w repairWrite) {
	s.repairOnce.Do(func() {
		depth := s.repairDepth
		if !s.repairDepthSet {
			depth = DefaultRepairQueue
		}
		if depth <= 0 {
			return // queue disabled: every async write sheds
		}
		ch := make(chan repairWrite, depth)
		s.repairCh.Store(ch)
		go s.repairLoop(ch)
	})
	ch := s.repairQueue()
	if ch == nil {
		s.repairsShed.Add(1)
		return
	}
	select {
	case ch <- w:
		// High-water sample. len(ch) can already read 0 if the worker
		// drained instantly, but the depth was ≥1 the moment the send
		// landed, so clamp — the mark deterministically reflects that the
		// queue was ever occupied and never overcounts.
		d := uint64(len(ch))
		if d == 0 {
			d = 1
		}
		s.queueHigh.Set(d)
	default:
		s.repairsShed.Add(1)
	}
}

// repairLoop drains the async maintenance queue until Close, then applies
// whatever is already queued and exits. Queued writes go through the same
// conditional store as synchronous ones, so a VERSIONED entry that sat in
// the queue while a user SET superseded it is rejected at drain time — the
// queue delays maintenance writes, it no longer widens the window in which
// they can clobber fresher state.
func (s *Server) repairLoop(ch chan repairWrite) {
	defer close(s.repairDone)
	for {
		select {
		case w := <-ch:
			s.drainRepair(w)
		case <-s.repairStop:
			for {
				select {
				case w := <-ch:
					s.drainRepair(w)
				default:
					return
				}
			}
		}
	}
}

// drainRepair applies one queued async maintenance write. When the
// originating request was sampled, the apply records a span joined to
// that request's trace ID, with QueueWaitNanos separating time spent
// sitting in the queue from the apply itself — the deferred half of a
// traced write's cluster-wide path.
func (s *Server) drainRepair(w repairWrite) {
	wait := time.Since(w.enq)
	s.repairWait.Record(wait)
	t0 := time.Now()
	applied, _, _ := s.store(w.key, w.flags, w.ver, w.val)
	if w.traced && w.trace.Sampled() {
		status := wire.StatusOK
		if !applied {
			status = wire.StatusVersionStale
		}
		s.spans.Append(telemetry.Span{
			Op:             byte(wire.OpSet),
			Status:         byte(status),
			TraceID:        w.trace.ID,
			KeyHash:        telemetry.HashKey(w.key),
			QueueWaitNanos: uint64(wait),
			DurationNanos:  uint64(time.Since(t0)),
			UnixNanos:      uint64(time.Now().UnixNano()),
		})
	}
}

func (s *Server) stats(detail bool) *wire.Stats {
	snap := s.cache.Snapshot()
	st := &wire.Stats{
		Hits:                 snap.Hits,
		Misses:               snap.Misses,
		Evictions:            snap.Evictions,
		ConflictEvictions:    snap.ConflictEvictions,
		FlushEvictions:       snap.FlushEvictions,
		Rehashes:             snap.Rehashes,
		Pending:              uint64(snap.Pending),
		Len:                  uint64(snap.Len),
		Capacity:             uint64(snap.Capacity),
		Alpha:                uint64(snap.Alpha),
		Buckets:              uint64(snap.Buckets),
		Sets:                 s.sets.Load(),
		RepairSets:           s.repairSets.Load(),
		RepairsShed:          s.repairsShed.Load(),
		StaleRepairs:         s.staleRepairs.Load(),
		RepairQueueHighWater: s.queueHigh.High(),
		LeasesGranted:        s.leasesGranted.Load(),
		LeasesExpired:        s.leasesExpired.Load(),
		StaleServes:          s.staleServes.Load(),
		TombstonesReaped:     s.tombstonesReaped.Load(),
		HintsQueued:          s.hintsQueued.Load(),
		HintsReplayed:        s.hintsReplayed.Load(),
		Migrating:            snap.Migrating,
	}
	if t := s.tombstones.Load(); t > 0 {
		st.Tombstones = uint64(t)
	}
	if ch := s.repairQueue(); ch != nil {
		st.RepairQueueDepth = uint64(len(ch))
	}
	if detail {
		shards := s.cache.ShardStats()
		st.Shards = make([]wire.ShardStat, len(shards))
		for i, sh := range shards {
			st.Shards[i] = wire.ShardStat{
				Hits: sh.Hits, Misses: sh.Misses, Evictions: sh.Evictions, Len: uint64(sh.Len),
			}
		}
	}
	return st
}
