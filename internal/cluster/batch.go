package cluster

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/wire"
)

// This file is the router's batch engine: GetBatch and SetBatch reach the
// wire through one plan, one partition, one enqueue loop, one drain loop
// with a single per-key response switch, and one replay-once/fail-over
// rule. Replication, leases and the near-cache are per-key cases inside
// it, not separate pipelines:
//
//   - Reads run up to R rounds. Round j sends every unresolved key to its
//     j-th owner: as GETL in round 0 when leases are on, GET otherwise.
//     R=1 is the one-round case.
//   - Writes run one round to all R owners. A key this client holds a fill
//     lease for goes to its primary alone, as a SETLEASE fill; the other
//     owners get a conditional repair once the fill lands.
//   - Before the network a read may be served by the near-cache, wait
//     briefly on a fill a sibling goroutine owns, or, with leases on, fold
//     onto an earlier position of the batch asking for the same key.
//   - A key whose lease another caller holds waits under backoff and is
//     re-planned through the same rounds, so its polls fail over to the
//     replicas exactly like a first read does.
//
// The invariants of replication.go hold for every configuration: visit is
// called exactly once per position, a read errors only when every owner
// of the key was unreachable, and a write errors only when fewer than W
// owners (one, for a fill) acknowledged it.

// batch is one GetBatch or SetBatch in flight. Work is addressed by slot:
// slot i*rf+j names position i's j-th owner. The struct is pooled with all
// of its slices, so a steady-state batch allocates none of it.
type batch struct {
	c     *Client
	keys  []uint64
	bt    batchTrace
	rf    int // effective R
	write bool
	visit func(i int, hit bool, value []byte)
	value func(i int) []byte

	// owners[slot] is the member a slot routes to, primary first per key.
	// stale[slot] marks an owner that does not hold the value the key
	// resolved to: a read saw it answer MISS (or a lease grant), a write
	// got no acknowledgement from it. Marked owners are the repair targets
	// once the key resolves with a value. A read does not mark an owner
	// whose connection failed: it may be dead rather than stale, and
	// aiming repairs at a corpse would grind the repair worker on failed
	// dials while genuinely stale replicas queue behind it.
	owners []string
	stale  []bool
	// dup[i] is the next position folded onto position i's request, or -1.
	dup []int
	// Writes only: acknowledgements, the highest version an owner stored
	// the write under (a repair carries it, so it is conditional on exactly
	// the write it completes), and the fill lease the position carries (nil
	// for a user SET).
	acks   []int
	vers   []uint64
	grants []*leaseGrant

	pending, next, waiters, slots []int
	subs, free                    []*subBatch
	resp                          wire.Response

	unresolved int // reads: keys no owner could answer
	lastErr    error
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

// resized returns s with length n and every element zeroed, reusing its
// capacity.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// newBatch takes a batch from the pool and plans it: every key's owners
// and the per-position state. Caller holds c.mu (either side).
func (c *Client) newBatch(keys []uint64, bt batchTrace, write bool) (*batch, error) {
	b := batchPool.Get().(*batch)
	b.c, b.keys, b.bt, b.write = c, keys, bt, write
	b.rf = c.effReplicas()
	n := len(keys)
	b.owners = b.owners[:0]
	for _, k := range keys {
		if b.owners = c.ring.appendOwners(b.owners, k, b.rf); len(b.owners) == 0 {
			b.release()
			return nil, fmt.Errorf("cluster: empty ring")
		}
	}
	b.stale = resized(b.stale, n*b.rf)
	b.dup = resized(b.dup, n)
	for i := range b.dup {
		b.dup[i] = -1
	}
	if write {
		b.acks = resized(b.acks, n)
		b.vers = resized(b.vers, n)
		b.grants = resized(b.grants, n)
	}
	return b, nil
}

// release returns the batch to the pool, dropping every reference it held
// into the caller's data and the connection buffers.
func (b *batch) release() {
	clear(b.grants)
	b.c, b.keys, b.visit, b.value = nil, nil, nil, nil
	b.resp = wire.Response{}
	b.unresolved, b.lastErr = 0, nil
	batchPool.Put(b)
}

// GetBatch routes one GET per key and calls visit exactly once per key. All
// members' pipelines are flushed before any response is read, so the batch
// costs one round trip regardless of how many members it spans; under
// replication, keys that miss or whose owner is unreachable cost one extra
// round trip per fallback owner tried. The value passed to visit aliases a
// connection buffer valid only for the duration of the call. Visit order is
// unspecified beyond key order within one member's sub-batch.
func (c *Client) GetBatch(keys []uint64, visit func(i int, hit bool, value []byte)) error {
	c.maybeRefresh()
	bt := c.nextTrace()
	c.mu.RLock()
	defer c.mu.RUnlock()
	b, err := c.newBatch(keys, bt, false)
	if err != nil {
		return err
	}
	defer b.release()
	b.visit = visit
	return b.read()
}

// SetBatch routes one SET per key, with value(i) producing the i-th
// payload. Pipelining and recovery mirror GetBatch. Under replication each
// key is written to all R owners and the batch fails unless every key is
// acknowledged by at least W of them; owners that failed their write while
// the key still met quorum are queued for background repair.
func (c *Client) SetBatch(keys []uint64, value func(i int) []byte) error {
	c.maybeRefresh()
	bt := c.nextTrace()
	c.mu.RLock()
	defer c.mu.RUnlock()
	b, err := c.newBatch(keys, bt, true)
	if err != nil {
		return err
	}
	defer b.release()
	b.value = value
	return b.writeAll()
}

// read resolves every position: the local steps first, then up to R
// network rounds, then — while some lease is held elsewhere — polls of
// the waiting keys through the same rounds.
func (b *batch) read() error {
	c := b.c
	var now time.Time
	if c.near != nil {
		now = time.Now()
	}
	b.pending = b.pending[:0]
positions:
	for i, k := range b.keys {
		if c.near != nil {
			if val, ok := c.nearRead(k, now); ok {
				b.visit(i, true, val)
				continue
			}
		}
		if c.leases {
			// Ask once per distinct key: two GETLs for one cold key would
			// win the grant with the first and be told "held" on the
			// second, and the batch would wait out its own lease.
			for _, p := range b.pending {
				if b.keys[p] == k {
					b.dup[i], b.dup[p] = b.dup[p], i
					continue positions
				}
			}
		}
		b.pending = append(b.pending, i)
	}

	var deadline time.Time
	backoff := leaseWaitBackoff
	for {
		b.waiters = b.waiters[:0]
		for j := 0; j < b.rf && len(b.pending) > 0; j++ {
			b.slots = b.slots[:0]
			for _, i := range b.pending {
				b.slots = append(b.slots, i*b.rf+j)
			}
			b.next = b.next[:0]
			b.round()
			b.pending, b.next = b.next, b.pending
		}
		if len(b.waiters) == 0 {
			break
		}
		// Another caller holds these keys' fill leases: recheck the
		// near-cache under backoff and re-plan the rest from round 0.
		// Past leaseWaitCap a key resolves as a plain miss, and the
		// caller's read-through typically inherits the expired lease.
		if deadline.IsZero() {
			c.leaseWaits.Add(uint64(len(b.waiters)))
			deadline = time.Now().Add(leaseWaitCap)
		}
		time.Sleep(backoff)
		backoff = min(2*backoff, leaseWaitBackoffMax)
		now := time.Now()
		b.pending = b.pending[:0]
		for _, i := range b.waiters {
			if c.near != nil {
				if val, _, ok := c.near.lookup(b.keys[i], now); ok {
					c.nearHits.Add(1)
					b.deliver(i, true, val)
					continue
				}
			}
			if now.After(deadline) {
				b.deliver(i, false, nil)
				continue
			}
			b.pending = append(b.pending, i)
		}
	}
	if b.unresolved > 0 {
		return fmt.Errorf("cluster: %d keys unreadable on all %d replicas: %w", b.unresolved, b.rf, b.lastErr)
	}
	return nil
}

// writeAll sends every position to its owners in one round — all R of
// them, or the primary alone for a lease fill — then checks quorum and
// propagates what landed: a conditional repair to each owner the write
// did not reach, and the stored version into the near-cache.
func (b *batch) writeAll() error {
	c, rf := b.c, b.rf
	defer b.closeGrants()
	b.slots = b.slots[:0]
	for i, k := range b.keys {
		if c.grantsN.Load() > 0 {
			b.grants[i] = c.takeGrant(k)
		}
		targets := rf
		if b.grants[i] != nil {
			targets = 1
		}
		for j := 0; j < rf; j++ {
			b.stale[i*rf+j] = true
			if j < targets {
				b.slots = append(b.slots, i*rf+j)
			}
		}
	}
	b.round()

	w := c.effQuorum(rf)
	for i, k := range b.keys {
		need := w
		if b.grants[i] != nil {
			need = 1
		}
		if b.acks[i] < need {
			return fmt.Errorf("cluster: SET %d acknowledged by %d of %d owners, write quorum %d: %w",
				k, b.acks[i], rf, need, b.lastErr)
		}
	}
	for i, k := range b.keys {
		if b.vers[i] == 0 {
			continue // a lost fill: fresher state already won
		}
		c.scheduleRepair(k, b.vers[i], b.value(i), b.owners[i*rf:(i+1)*rf], b.stale[i*rf:(i+1)*rf], b.bt)
		if c.near != nil {
			c.near.store(k, b.vers[i], b.value(i), time.Now())
		}
	}
	return nil
}

// closeGrants wakes the local waiters of every fill this batch carried,
// whatever became of it, so they re-read instead of sleeping out their
// wait.
func (b *batch) closeGrants() {
	for _, g := range b.grants {
		if g != nil {
			close(g.done)
		}
	}
}

// round sends the planned slots: partition them by member, lock the
// members in address order, enqueue and flush every sub-batch before
// draining any, and recycle the partition.
func (b *batch) round() {
	for _, slot := range b.slots {
		addr := b.owners[slot]
		// Scan the batch's sub-batches by address: there are at most as
		// many as members, so the scan is shorter than hashing the address
		// into a map, and only a member's first slot looks it up in nodes.
		var sub *subBatch
		for _, s := range b.subs {
			if s.nc.addr == addr {
				sub = s
				break
			}
		}
		if sub == nil {
			sub = b.newSub(b.c.nodes[addr])
			b.subs = append(b.subs, sub)
		}
		sub.idx = append(sub.idx, slot)
	}
	sortSubs(b.subs)
	lockSubs(b.subs)
	for _, s := range b.subs {
		s.err = b.enqueue(s)
	}
	for _, s := range b.subs {
		b.drain(s)
	}
	unlockSubs(b.subs)
	for _, s := range b.subs {
		*s = subBatch{idx: s.idx[:0]}
		b.free = append(b.free, s)
	}
	b.subs = b.subs[:0]
}

// newSub hands out a sub-batch for nc, reusing a recycled one when it can.
func (b *batch) newSub(nc *nodeConn) *subBatch {
	if n := len(b.free); n > 0 {
		s := b.free[n-1]
		b.free = b.free[:n-1]
		s.nc = nc
		return s
	}
	return &subBatch{nc: nc}
}

// enqueue dials the member if needed, pipelines the sub-batch's requests
// and flushes. Each request is built in the Enqueue call itself, stamped
// with the batch's trace context when traced.
func (b *batch) enqueue(s *subBatch) error {
	cl, err := s.nc.client(b.c.dial)
	if err != nil {
		return err
	}
	for _, slot := range s.idx {
		i := slot / b.rf
		op, flags, token, val := b.request(i, slot%b.rf)
		err := cl.Enqueue(wire.Request{
			Op: op, Key: b.keys[i], Flags: flags, LeaseToken: token, Value: val,
			Trace: b.bt.tc, Traced: b.bt.traced,
		})
		if err != nil {
			return err
		}
	}
	return cl.Flush()
}

// request returns what position i sends its j-th owner: the opcode, and
// for a write its SET flags, lease token and value.
func (b *batch) request(i, j int) (op wire.Op, flags wire.SetFlags, token uint64, val []byte) {
	switch {
	case b.write && b.grants[i] != nil:
		return wire.OpSet, wire.SetFlagLease, b.grants[i].token, b.value(i)
	case b.write:
		return wire.OpSet, 0, 0, b.value(i)
	case b.c.leases && j == 0:
		// Only the primary round leases: fallback rounds read replicas
		// that may legitimately be empty, and granting fills against them
		// would mint one lease per replica per key.
		return wire.OpGetLease, 0, 0, nil
	}
	return wire.OpGet, 0, 0, nil
}

// drain reads one sub-batch's responses under the recovery rule: a
// sub-batch none of whose responses was delivered is redialed and
// replayed once; after that the member counts as unreachable, its
// connection is dropped (it may hold undrained responses), and each
// undelivered slot fails over.
func (b *batch) drain(s *subBatch) {
	if s.err == nil {
		s.err = b.readResponses(s)
	}
	if s.err != nil && s.delivered == 0 {
		s.nc.drop()
		s.nc.redials.Add(1)
		if s.err = b.enqueue(s); s.err == nil {
			s.err = b.readResponses(s)
		}
	}
	if s.err != nil {
		s.nc.drop()
		b.lastErr = s.err
		for _, slot := range s.idx[s.delivered:] {
			b.failover(slot)
		}
	}
}

// readResponses decodes the sub-batch's outstanding responses in order,
// observing the topology epoch each one carries.
func (b *batch) readResponses(s *subBatch) error {
	cl := s.nc.cl
	for _, slot := range s.idx[s.delivered:] {
		if err := cl.ReadResponse(&b.resp); err != nil {
			return err
		}
		b.c.observeEpoch(b.resp.Epoch)
		if err := b.apply(s.nc, slot); err != nil {
			return err
		}
		s.delivered++
	}
	return nil
}

// apply is the per-key response switch.
//
//   - HIT resolves the read; owners that missed in earlier rounds get a
//     repair, and a fill grant this client held for the key is dropped.
//   - MISS, and a LEASE grant (recorded for the read-through fill), mark
//     the owner stale and fall to the next round, resolving as a miss at
//     the last owner.
//   - A LEASE stale hint is served as a hit; a bare zero-token LEASE makes
//     the key wait for the holder's fill.
//   - OK acknowledges a write at the version the owner stored.
//   - LEASE_LOST acknowledges a fill as a successful no-op: fresher state
//     won, so nothing is cached or propagated.
func (b *batch) apply(nc *nodeConn, slot int) error {
	c, resp := b.c, &b.resp
	i, j := slot/b.rf, slot%b.rf
	key := b.keys[i]
	hit := false
	switch st := resp.Status; {
	case !b.write && st == wire.StatusHit:
		hit = true
		if j > 0 {
			c.fallbackHits.Add(1)
			c.scheduleRepair(key, resp.Version, resp.Value, b.owners[i*b.rf:slot], b.stale[i*b.rf:slot], b.bt)
		}
		if c.grantsN.Load() > 0 {
			// Resident after all (a fallback owner's hit also repairs the
			// primary, which invalidates its lease server-side): a stray
			// grant must not turn a later user SET of the key into a
			// discardable fill.
			c.finishGrant(key)
		}
		b.deliver(i, true, c.nearValue(key, resp))
	case !b.write && (st == wire.StatusMiss || st == wire.StatusLease && resp.LeaseToken != 0):
		if st == wire.StatusLease {
			c.recordGrant(key, resp.LeaseToken, resp.LeaseTTL)
		}
		b.stale[slot] = true
		if j == b.rf-1 {
			b.deliver(i, false, nil)
		} else {
			b.next = append(b.next, i)
		}
	case !b.write && st == wire.StatusLease && resp.Stale:
		c.staleHints.Add(1)
		b.deliver(i, true, c.nearValue(key, resp))
	case !b.write && st == wire.StatusLease:
		b.waiters = append(b.waiters, i)
	case b.write && st == wire.StatusOK:
		b.acks[i]++
		b.stale[slot] = false
		b.vers[i] = max(b.vers[i], resp.Version)
	case b.write && st == wire.StatusLeaseLost:
		c.leaseLost.Add(1)
		b.acks[i]++
		clear(b.stale[i*b.rf : (i+1)*b.rf])
		if c.near != nil {
			c.near.remove(key)
		}
	default:
		return fmt.Errorf("cluster: unexpected response %v from %s", st, nc.addr)
	}
	switch {
	case b.write:
		nc.sets.Add(1)
	case hit:
		nc.gets.Add(1)
		nc.hits.Add(1)
	default:
		nc.gets.Add(1)
		nc.misses.Add(1)
	}
	return nil
}

// failover settles a slot whose owner stayed unreachable. A read moves to
// the key's next owner; at the last owner it resolves as a miss if some
// owner authoritatively missed, and is unreadable otherwise. A write needs
// nothing: its owner stays marked stale, and the quorum check decides.
func (b *batch) failover(slot int) {
	if b.write {
		return
	}
	i, j := slot/b.rf, slot%b.rf
	switch {
	case j < b.rf-1:
		b.next = append(b.next, i)
	case slices.Contains(b.stale[i*b.rf:slot], true):
		b.deliver(i, false, nil)
	default:
		b.unresolved++
	}
}

// deliver visits position i and every position folded onto it.
func (b *batch) deliver(i int, hit bool, val []byte) {
	for ; i >= 0; i = b.dup[i] {
		b.visit(i, hit, val)
	}
}
