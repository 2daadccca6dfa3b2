package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/concurrent"
	"repro/internal/load"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

const (
	nodeK      = 1 << 15 // k, entries per node
	nodeAlpha  = 16      // α ≈ log₂ k
	callers    = 2       // closed-loop callers, one client each
	batchKeys  = 16      // keys per GetBatch
	warmBatch  = 128     // keys per warm-fill batch: fewer round trips, same fills
	smallValue = 64
	bigValue   = 8 << 10 // rides the ≥4 KiB zero-copy path
	zipfS      = 0.99
	// streamKeys is each caller's slice of the generated stream; a caller
	// that reaches its end starts over.
	streamKeys = 1 << 20
)

// spec is one workload. Each one isolates a different set of layers; the
// notes in README.md say which and why.
type spec struct {
	name     string
	nodes    int
	universe int
	routed   bool // callers use cluster.Client; otherwise a raw wire.Client
	opts     cluster.Options
	del      bool   // each step also deletes one key drawn from the stream
	bigEvery uint64 // keys divisible by bigEvery carry bigValue bytes; 0: none
	sweep    bool   // a maintenance caller times AntiEntropySweep once a second
}

var specs = []spec{
	{name: "node-read", nodes: 1, universe: 2 * nodeK},
	{
		name: "cluster-read", nodes: 3, universe: 6 * nodeK, routed: true,
		opts: cluster.Options{Replicas: 1},
	},
	{
		name: "replicated-rw", nodes: 3, universe: 6 * nodeK, routed: true,
		opts: cluster.Options{
			Replicas: 2, Leases: true,
			NearCache: cluster.NearCacheOptions{Slots: 1024},
		},
		del: true, bigEvery: 32, sweep: true,
	},
}

func findSpec(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// streams generates the callers' key streams from seed: one zipf stream
// over the workload's universe, cut into one contiguous slice per caller
// so that all callers share the same popularity ranking.
func (s *spec) streams(seed uint64) [][]uint64 {
	seq := workload.Zipf{Universe: s.universe, S: zipfS, Shuffle: true}.Generate(callers*streamKeys, seed)
	out := make([][]uint64, callers)
	for c := range out {
		out[c] = make([]uint64, streamKeys)
		for i, k := range seq[c*streamKeys : (c+1)*streamKeys] {
			out[c][i] = uint64(k)
		}
	}
	return out
}

func (s *spec) valueSize(key uint64) int {
	if s.bigEvery > 0 && key%s.bigEvery == 0 {
		return bigValue
	}
	return smallValue
}

// verify checks a hit: the payload load.Payload writes for key, at the
// size this workload gives it.
func (s *spec) verify(key uint64, v []byte) bool {
	return len(v) == s.valueSize(key) && load.VerifyPayload(key, v)
}

// rig is one booted workload: its nodes on loopback, in this process, and
// its callers.
type rig struct {
	spec    *spec
	servers []*server.Server
	addrs   []string
	serving sync.WaitGroup
	// reg and tracing exist on traced runs: the listeners wrap the
	// connections accepted while tracing is set.
	reg     *peerRegistry
	tracing atomic.Bool
	callers []*caller
	maint   *cluster.Client // routed workloads: sweeps and the convergence check
}

// boot starts the nodes, dials the callers and runs the warm fill. With
// traced set the listeners are wrapped, but they wrap nothing until
// retrace turns tracing on.
func boot(s *spec, seed uint64, streams [][]uint64, traced bool) (*rig, error) {
	r := &rig{spec: s}
	if traced {
		r.reg = newPeerRegistry()
	}
	for i := 0; i < s.nodes; i++ {
		cache, err := concurrent.New(concurrent.Config{Capacity: nodeK, Alpha: nodeAlpha, Seed: seed + uint64(i)})
		if err != nil {
			r.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		r.addrs = append(r.addrs, ln.Addr().String())
		if traced {
			ln = tracedListener{Listener: ln, reg: r.reg, on: &r.tracing}
		}
		srv := server.New(cache)
		r.servers = append(r.servers, srv)
		r.serving.Add(1)
		go func() {
			defer r.serving.Done()
			// Serve returns nil once close stops it; a listener that
			// fails shows up as the callers' dial errors.
			_ = srv.Serve(ln)
		}()
	}
	for c := 0; c < callers; c++ {
		cl, err := r.newCaller(streams[c], 0, nil)
		if err != nil {
			r.close()
			return nil, err
		}
		r.callers = append(r.callers, cl)
	}
	if s.routed {
		m, err := cluster.Dial(r.addrs, cluster.Options{Replicas: s.opts.Replicas})
		if err != nil {
			r.close()
			return nil, err
		}
		r.maint = m
	}
	if err := r.warm(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// warm runs the unmeasured read-through fill: every caller walks as many
// keys of its stream as the universe holds, in large batches,
// concurrently.
func (r *rig) warm() error {
	errs := make([]error, len(r.callers))
	var wg sync.WaitGroup
	for i, c := range r.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.warm(r.spec.universe)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm fill: %w", err)
		}
	}
	return nil
}

// newCaller dials one caller's client, traced through ct when ct is
// non-nil, positioned at pos in its stream.
func (r *rig) newCaller(stream []uint64, pos int, ct *callerTrace) (*caller, error) {
	c := &caller{spec: r.spec, stream: stream, pos: pos, tr: ct}
	switch {
	case r.spec.routed:
		opts := r.spec.opts
		if ct != nil {
			opts.Dial = ct.dial
		}
		c.dial = func() (load.Conn, error) { return cluster.Dial(r.addrs, opts) }
	case ct != nil:
		c.dial = func() (load.Conn, error) { return ct.dial(r.addrs[0]) }
	default:
		c.dial = func() (load.Conn, error) { return wire.Dial(r.addrs[0]) }
	}
	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.setConn(conn)
	c.init()
	return c, nil
}

// retrace replaces the callers with traced ones that continue their
// streams where the untraced ones stopped.
func (r *rig) retrace() error {
	r.tracing.Store(true)
	for i, old := range r.callers {
		ct := &callerTrace{reg: r.reg}
		c, err := r.newCaller(old.stream, old.pos, ct)
		if err != nil {
			return err
		}
		old.close()
		r.callers[i] = c
	}
	return nil
}

// close stops the clients and then the nodes, and waits for every serving
// goroutine to return.
func (r *rig) close() {
	for _, c := range r.callers {
		c.close()
	}
	r.callers = nil
	if r.maint != nil {
		r.maint.Close()
		r.maint = nil
	}
	for _, s := range r.servers {
		s.Close()
	}
	r.serving.Wait()
}

// nodeSnap is one node's METRICS and STATS at one instant.
type nodeSnap struct {
	m *wire.Metrics
	s *wire.Stats
}

func (r *rig) snapshot() ([]nodeSnap, error) {
	out := make([]nodeSnap, len(r.addrs))
	for i, addr := range r.addrs {
		cl, err := wire.Dial(addr)
		if err != nil {
			return nil, err
		}
		m, err := cl.Metrics(wire.MetricsHistograms | wire.MetricsCounters)
		if err == nil {
			out[i].m = m
			out[i].s, err = cl.Stats(false)
		}
		cl.Close()
		if err != nil {
			return nil, fmt.Errorf("snapshot %s: %w", addr, err)
		}
	}
	return out, nil
}

// checkConvergence closes the callers, lets the servers drain their repair
// queues, runs one more AntiEntropySweep and then reads every node's KEYS:
// each key's owners that hold it must hold the same {version, tombstone}.
// A key held by only one owner was evicted from the others, which a cache
// may do. It returns the number of divergent keys.
func (r *rig) checkConvergence() (divergent int, err error) {
	for _, c := range r.callers {
		c.close()
	}
	r.callers = nil
	for deadline := time.Now().Add(5 * time.Second); ; {
		snaps, err := r.snapshot()
		if err != nil {
			return 0, err
		}
		busy := false
		for _, n := range snaps {
			busy = busy || n.s.RepairQueueDepth > 0
		}
		if !busy || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := r.maint.AntiEntropySweep(); err != nil {
		return 0, fmt.Errorf("final sweep: %w", err)
	}
	held := make(map[uint64]map[string]wire.KeyRec)
	for _, addr := range r.addrs {
		cl, err := wire.Dial(addr)
		if err != nil {
			return 0, err
		}
		recs, err := cl.Keys()
		cl.Close()
		if err != nil {
			return 0, fmt.Errorf("KEYS %s: %w", addr, err)
		}
		for _, rec := range recs {
			if held[rec.Key] == nil {
				held[rec.Key] = make(map[string]wire.KeyRec, 2)
			}
			held[rec.Key][addr] = rec
		}
	}
	for key, by := range held {
		var first *wire.KeyRec
		for _, owner := range r.maint.Owners(key) {
			rec, ok := by[owner]
			if !ok {
				continue
			}
			if first == nil {
				first = &rec
			} else if rec.Version != first.Version || rec.Tombstone != first.Tombstone {
				divergent++
				break
			}
		}
	}
	return divergent, nil
}
