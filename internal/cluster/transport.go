package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// This file is the transport layer of the router: one pipelined wire
// connection per member, lazily dialed, redialed once on failure, and the
// sub-batch machinery that fans one logical batch out across members under
// a deadlock-free lock order. It knows nothing about rings, epochs or
// replication — that is the topology layer (topology.go) and the routing
// client (client.go, replication.go).

// DialFunc establishes the wire connection to one member. The default is
// wire.Dial; tests substitute wrappers (stall injection) and deployments
// can layer TLS here.
type DialFunc func(addr string) (*wire.Client, error)

// nodeConn is one member's connection state plus the router's per-member
// traffic counters. The connection is dialed lazily on first use, so
// members discovered through a topology refresh cost nothing until traffic
// routes to them.
type nodeConn struct {
	addr string
	mu   sync.Mutex // serializes use of cl
	cl   *wire.Client

	gets, hits, misses, sets, dels, redials, repairs atomic.Uint64
}

// client returns the live connection, dialing if needed. Caller holds nc.mu.
func (nc *nodeConn) client(dial DialFunc) (*wire.Client, error) {
	if nc.cl != nil {
		return nc.cl, nil
	}
	cl, err := dial(nc.addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", nc.addr, err)
	}
	nc.cl = cl
	return cl, nil
}

// drop discards the connection after an error. Caller holds nc.mu.
func (nc *nodeConn) drop() {
	if nc.cl != nil {
		nc.cl.Close()
		nc.cl = nil
	}
}

// withRetry runs op against the member connection, redialing once on
// failure. Caller holds nc.mu. Only safe for idempotent round trips.
func (nc *nodeConn) withRetry(dial DialFunc, op func(cl *wire.Client) error) error {
	cl, err := nc.client(dial)
	if err == nil {
		if err = op(cl); err == nil {
			return nil
		}
	}
	nc.drop()
	nc.redials.Add(1)
	cl, err2 := nc.client(dial)
	if err2 != nil {
		return fmt.Errorf("%w (redial: %v)", err, err2)
	}
	if err := op(cl); err != nil {
		nc.drop()
		return err
	}
	return nil
}

// batchTrace is one batch's trace context, handed down to the enqueue
// helpers. The zero value means untraced: the requests go out in their
// v5-identical form with no trace bytes. A traced batch stamps the same
// context on every request of every sub-batch — fan-out is one logical
// request, so it is one trace.
type batchTrace struct {
	tc     wire.TraceContext
	traced bool
}

// subBatch is the slice of one batch owned by a single member.
type subBatch struct {
	nc        *nodeConn
	idx       []int // positions in the original batch, in enqueue order
	err       error
	delivered int
}

// batchScratch is the per-batch partition state — the identity index list,
// the sub-batch slice and a freelist of recycled subBatch structs (with
// their idx capacity retained). Pooled so a steady-state GetBatch/SetBatch
// allocates none of it. A scratch is private to one batch from
// getBatchScratch until release, so no locking is needed beyond
// sync.Pool's own.
type batchScratch struct {
	idxs []int
	subs []*subBatch
	free []*subBatch
}

var batchScratchPool = sync.Pool{
	New: func() any { return &batchScratch{} },
}

func getBatchScratch() *batchScratch { return batchScratchPool.Get().(*batchScratch) }

// release recycles the sub-batches and returns the scratch to the pool.
// Callers must be done with every *subBatch and idx slice handed out from
// this scratch: they are reused verbatim by the next batch.
func (sc *batchScratch) release() {
	for _, s := range sc.subs {
		s.nc = nil
		s.idx = s.idx[:0]
		s.err = nil
		s.delivered = 0
		sc.free = append(sc.free, s)
	}
	sc.subs = sc.subs[:0]
	batchScratchPool.Put(sc)
}

// newSub hands out a sub-batch for nc, reusing a recycled struct when one
// is available.
func (sc *batchScratch) newSub(nc *nodeConn) *subBatch {
	if n := len(sc.free); n > 0 {
		s := sc.free[n-1]
		sc.free = sc.free[:n-1]
		s.nc = nc
		return s
	}
	return &subBatch{nc: nc}
}

// sortSubs orders sub-batches by member address. Lock acquisition must be
// totally ordered to stay deadlock-free across concurrent batches.
// Insertion sort rather than sort.Slice: sub-batch counts are tiny (one
// per involved member) and sort.Slice allocates its closure and reflect
// swapper on every call, which the batch hot path cannot afford.
func sortSubs(subs []*subBatch) {
	for i := 1; i < len(subs); i++ {
		for j := i; j > 0 && subs[j].nc.addr < subs[j-1].nc.addr; j-- {
			subs[j], subs[j-1] = subs[j-1], subs[j]
		}
	}
}

// lockSubs acquires every involved member connection in address order;
// unlockSubs releases them. A plain function pair instead of a returned
// closure keeps the batch hot path allocation-free.
func lockSubs(subs []*subBatch) {
	for _, s := range subs {
		s.nc.mu.Lock()
	}
}

// unlockSubs releases the member connections lockSubs acquired.
func unlockSubs(subs []*subBatch) {
	for _, s := range subs {
		s.nc.mu.Unlock()
	}
}

// dropSubs discards every involved member connection after a failed batch:
// some were flushed but never fully drained, and reusing one would hand a
// later batch the stale responses of this one. Callers hold the node locks.
func dropSubs(subs []*subBatch) {
	for _, s := range subs {
		s.nc.drop()
	}
}

// enqueueGets dials (if needed), pipelines the sub-batch's GETs and
// flushes, stamping the batch's trace context on each when traced.
func (s *subBatch) enqueueGets(dial DialFunc, keys []uint64, bt batchTrace) error {
	cl, err := s.nc.client(dial)
	if err != nil {
		return err
	}
	for _, i := range s.idx {
		if bt.traced {
			err = cl.EnqueueGetTraced(keys[i], bt.tc)
		} else {
			err = cl.EnqueueGet(keys[i])
		}
		if err != nil {
			return err
		}
	}
	return cl.Flush()
}

// enqueueSets dials (if needed), pipelines the sub-batch's SETs and
// flushes, stamping the batch's trace context on each when traced.
func (s *subBatch) enqueueSets(dial DialFunc, keys []uint64, value func(i int) []byte, bt batchTrace) error {
	cl, err := s.nc.client(dial)
	if err != nil {
		return err
	}
	for _, i := range s.idx {
		if bt.traced {
			err = cl.EnqueueSetFlagsTraced(keys[i], 0, bt.tc, value(i))
		} else {
			err = cl.EnqueueSet(keys[i], value(i))
		}
		if err != nil {
			return err
		}
	}
	return cl.Flush()
}
