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
// replication — that is the topology layer (topology.go), the routing
// client (client.go, replication.go) and the batch engine (batch.go).

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

// batchTrace is one batch's trace context, stamped on every request the
// batch enqueues. The zero value means untraced: the requests go out in
// their v5-identical form with no trace bytes. A traced batch stamps the
// same context on every request of every sub-batch — fan-out is one
// logical request, so it is one trace.
type batchTrace struct {
	tc     wire.TraceContext
	traced bool
}

// subBatch is the slice of one batch owned by a single member.
type subBatch struct {
	nc        *nodeConn
	idx       []int // the batch's slots routed to nc, in enqueue order
	err       error
	delivered int
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
