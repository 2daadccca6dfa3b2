package cluster

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/wire"
)

// This file is the client half of the v7 lease protocol: GETL misses, the
// grant table, the fill path, and the waiter-resolution loop, plus the
// router-level singleflight that keeps one process from duplicating a
// fill it already owns. The near-cache (nearcache.go) is its edge: lease
// and stale-hint reads land there, version-reconciled, so a hot key's
// storm is absorbed locally instead of at the key's primary owner.

// maxGrants bounds the outstanding-grant table; at the cap, an expired
// grant (or, failing a cheap scan, an arbitrary one) is dropped — its
// fill then simply never happens and the server-side lease expires on its
// own, which every lease holder must tolerate anyway.
const maxGrants = 4096

// Bounds for waiting on someone else's fill. A local wait (a sibling
// goroutine of this client holds the grant) blocks on the grant's done
// channel; a remote wait polls the owner with GETL under exponential
// backoff. Both are capped: leases bound how long the herd defers to a
// holder that may have died, and past the cap the key resolves as a
// plain miss so the caller's read-through inherits the (by then expired)
// lease.
const (
	leaseLocalWait      = 50 * time.Millisecond
	leaseWaitBackoff    = 200 * time.Microsecond
	leaseWaitBackoffMax = 5 * time.Millisecond
	leaseWaitCap        = 100 * time.Millisecond
)

// leaseGrant is one fill lease this client holds: the wire token and its
// deadline, plus a channel closed when the fill resolves (or the grant is
// discarded) so sibling goroutines singleflight on it instead of issuing
// duplicate network misses.
type leaseGrant struct {
	token   uint64
	expires time.Time
	done    chan struct{}
}

// recordGrant registers a LEASE grant for key, superseding (and waking
// the waiters of) any previous grant.
func (c *Client) recordGrant(key, token uint64, ttl time.Duration) {
	g := &leaseGrant{token: token, expires: time.Now().Add(ttl), done: make(chan struct{})}
	c.grantMu.Lock()
	if c.grants == nil {
		c.grants = make(map[uint64]*leaseGrant)
	}
	if old := c.grants[key]; old != nil {
		close(old.done)
	} else if len(c.grants) >= maxGrants {
		c.evictGrantsLocked()
	}
	c.grants[key] = g
	c.grantsN.Store(int64(len(c.grants)))
	c.grantMu.Unlock()
	c.leaseGrants.Add(1)
}

// takeGrant removes and returns key's outstanding grant, if any; the
// caller then owns closing done once the fill resolves.
func (c *Client) takeGrant(key uint64) *leaseGrant {
	c.grantMu.Lock()
	defer c.grantMu.Unlock()
	g := c.grants[key]
	if g != nil {
		delete(c.grants, key)
		c.grantsN.Store(int64(len(c.grants)))
	}
	return g
}

// peekGrant returns key's outstanding grant without removing it.
func (c *Client) peekGrant(key uint64) *leaseGrant {
	c.grantMu.Lock()
	defer c.grantMu.Unlock()
	return c.grants[key]
}

// finishGrant discards key's grant — the key turned out resident, or was
// deleted — waking any local waiters so they re-read.
func (c *Client) finishGrant(key uint64) {
	if g := c.takeGrant(key); g != nil {
		close(g.done)
	}
}

// evictGrantsLocked makes room in the full grant table: a short scan
// drops the first expired grant, falling back to an arbitrary one.
// Called with grantMu held.
func (c *Client) evictGrantsLocked() {
	now := time.Now()
	scanned := 0
	var fallback uint64
	found := false
	for k, g := range c.grants {
		if now.After(g.expires) {
			close(g.done)
			delete(c.grants, k)
			return
		}
		if !found {
			fallback, found = k, true
		}
		if scanned++; scanned >= 8 {
			break
		}
	}
	if found {
		close(c.grants[fallback].done)
		delete(c.grants, fallback)
	}
}

// getBatchLeased is GetBatch with leases and/or the near-cache on:
// serve what the near-cache holds, singleflight on fills this client
// already owns, send the remainder as GETL (plain GET when only the
// near-cache is enabled), and resolve zero-token waiters by polling the
// holder. Caller holds c.mu.RLock.
func (c *Client) getBatchLeased(keys []uint64, bt batchTrace, visit func(i int, hit bool, value []byte)) error {
	now := time.Now()
	remote := make([]int, 0, len(keys))
	for i, k := range keys {
		if c.near != nil {
			if val, _, ok := c.near.lookup(k, now); ok {
				c.nearHits.Add(1)
				visit(i, true, val)
				continue
			}
		}
		remote = append(remote, i)
	}
	if len(remote) > 0 && c.near != nil && c.grantsN.Load() > 0 {
		remote = c.waitLocalGrants(keys, remote, visit)
	}
	if len(remote) == 0 {
		return nil
	}
	// The network round runs over the compacted, deduplicated remainder so
	// sub-batch index bookkeeping stays contiguous; wvisit maps back. A key
	// the batch repeats is asked for once: two GETLs for one cold key would
	// win the grant with the first and be told "held" on the second, and
	// the batch would wait out its own lease. Each unique key's result fans
	// out to every position that asked for it. Batches are a few dozen
	// keys, so duplicates are found by a linear scan of rk.
	rk := make([]uint64, 0, len(remote))
	uidx := make([]int, len(remote)) // per remote index: its key's index in rk
	for j, i := range remote {
		u := slices.Index(rk, keys[i])
		if u < 0 {
			u = len(rk)
			rk = append(rk, keys[i])
		}
		uidx[j] = u
	}
	wvisit := func(u int, hit bool, value []byte) {
		// rk's u-th key first appears at remote index u or later.
		for j := u; j < len(remote); j++ {
			if uidx[j] == u {
				visit(remote[j], hit, value)
			}
		}
	}
	var waiters []int
	var err error
	if c.effReplicas() > 1 {
		err = c.getBatchReplicated(rk, bt, &waiters, wvisit)
	} else {
		all := make([]int, len(rk))
		for j := range all {
			all[j] = j
		}
		err = c.getBatchDirectLeased(rk, all, bt, &waiters, wvisit)
	}
	if err != nil {
		return err
	}
	if len(waiters) > 0 {
		return c.resolveWaiters(rk, waiters, bt, wvisit)
	}
	return nil
}

// waitLocalGrants is the router singleflight: a key whose fill lease is
// held by a sibling goroutine of this client waits briefly on that fill
// instead of sending a duplicate miss, then rechecks the near-cache.
func (c *Client) waitLocalGrants(keys []uint64, remote []int, visit func(i int, hit bool, value []byte)) []int {
	still := remote[:0]
	for _, i := range remote {
		g := c.peekGrant(keys[i])
		if g == nil {
			still = append(still, i)
			continue
		}
		c.leaseWaits.Add(1)
		wait := time.Until(g.expires)
		if wait > leaseLocalWait {
			wait = leaseLocalWait
		}
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-g.done:
			case <-t.C:
			}
			t.Stop()
		}
		if val, _, ok := c.near.lookup(keys[i], time.Now()); ok {
			c.nearHits.Add(1)
			visit(i, true, val)
			continue
		}
		still = append(still, i)
	}
	return still
}

// getBatchDirectLeased is the unreplicated network round of a leased
// batch: one GETL per key (plain GET when only the near-cache is on),
// with the plain path's pipelining and replay-once recovery. Zero-token
// LEASE responses without a stale hint append their index to waiters for
// the caller's resolution loop. Caller holds c.mu.RLock.
func (c *Client) getBatchDirectLeased(keys []uint64, idxs []int, bt batchTrace, waiters *[]int, visit func(i int, hit bool, value []byte)) error {
	sc := getBatchScratch()
	defer sc.release()
	subs, err := c.partitionIdx(sc, keys, idxs)
	if err != nil {
		return err
	}
	lockSubs(subs)
	defer unlockSubs(subs)

	for _, s := range subs {
		s.err = s.enqueueGetsLease(c.dial, keys, bt, c.leases)
	}
	for _, s := range subs {
		if s.err == nil {
			s.err = c.readGetsLeased(s, keys, waiters, visit)
		}
		if s.err != nil {
			if s.delivered > 0 {
				dropSubs(subs)
				return s.err
			}
			s.nc.drop()
			s.nc.redials.Add(1)
			if err := s.enqueueGetsLease(c.dial, keys, bt, c.leases); err != nil {
				dropSubs(subs)
				return err
			}
			if err := c.readGetsLeased(s, keys, waiters, visit); err != nil {
				dropSubs(subs)
				return err
			}
		}
	}
	return nil
}

// enqueueGetsLease dials (if needed), pipelines the sub-batch's reads as
// GETL (lease) or GET, and flushes.
func (s *subBatch) enqueueGetsLease(dial DialFunc, keys []uint64, bt batchTrace, lease bool) error {
	if !lease {
		return s.enqueueGets(dial, keys, bt)
	}
	cl, err := s.nc.client(dial)
	if err != nil {
		return err
	}
	for _, i := range s.idx {
		if bt.traced {
			err = cl.EnqueueGetLeaseTraced(keys[i], bt.tc)
		} else {
			err = cl.EnqueueGetLease(keys[i])
		}
		if err != nil {
			return err
		}
	}
	return cl.Flush()
}

// readGetsLeased drains one sub-batch's GETL (or GET) responses: hits
// reconcile through the near-cache, grants are recorded and reported as
// misses (the caller's read-through fill carries the token), stale hints
// are served as hits, and bare zero-token responses join waiters.
func (c *Client) readGetsLeased(s *subBatch, keys []uint64, waiters *[]int, visit func(i int, hit bool, value []byte)) error {
	cl := s.nc.cl
	for _, i := range s.idx[s.delivered:] {
		resp, err := cl.ReadResponse()
		if err != nil {
			return err
		}
		c.observeEpoch(resp.Epoch)
		s.nc.gets.Add(1)
		s.delivered++
		switch resp.Status {
		case wire.StatusHit:
			s.nc.hits.Add(1)
			val := resp.Value
			if c.near != nil {
				val, _ = c.near.reconcile(keys[i], resp.Version, resp.Value, time.Now())
			}
			if c.grantsN.Load() > 0 {
				// Resident after all: a stray grant must not turn a later
				// user SET of the key into a discardable fill.
				c.finishGrant(keys[i])
			}
			visit(i, true, val)
		case wire.StatusMiss:
			s.nc.misses.Add(1)
			visit(i, false, nil)
		case wire.StatusLease:
			s.nc.misses.Add(1)
			switch {
			case resp.LeaseToken != 0:
				c.recordGrant(keys[i], resp.LeaseToken, resp.LeaseTTL)
				visit(i, false, nil)
			case resp.Stale:
				c.staleHints.Add(1)
				val := resp.Value
				if c.near != nil {
					val, _ = c.near.reconcile(keys[i], resp.Version, resp.Value, time.Now())
				}
				visit(i, true, val)
			default:
				*waiters = append(*waiters, i)
			}
		default:
			return fmt.Errorf("cluster: unexpected GETL response %v from %s", resp.Status, s.nc.addr)
		}
	}
	return nil
}

// resolveWaiters polls keys whose lease is held elsewhere: recheck the
// near-cache, re-GETL the owner under backoff, and past leaseWaitCap
// resolve as plain misses — the caller's read-through then GETLs again
// and typically inherits the expired lease. Caller holds c.mu.RLock.
func (c *Client) resolveWaiters(keys []uint64, waiters []int, bt batchTrace, visit func(i int, hit bool, value []byte)) error {
	c.leaseWaits.Add(uint64(len(waiters)))
	deadline := time.Now().Add(leaseWaitCap)
	backoff := leaseWaitBackoff
	pending := waiters
	for {
		time.Sleep(backoff)
		if backoff *= 2; backoff > leaseWaitBackoffMax {
			backoff = leaseWaitBackoffMax
		}
		now := time.Now()
		still := pending[:0]
		for _, i := range pending {
			if c.near != nil {
				if val, _, ok := c.near.lookup(keys[i], now); ok {
					c.nearHits.Add(1)
					visit(i, true, val)
					continue
				}
			}
			still = append(still, i)
		}
		if len(still) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			for _, i := range still {
				visit(i, false, nil)
			}
			return nil
		}
		var next []int
		if err := c.getBatchDirectLeased(keys, still, bt, &next, visit); err != nil {
			return err
		}
		if len(next) == 0 {
			return nil
		}
		pending = next
	}
}

// setBatchLeased is SetBatch with leases and/or the near-cache on. Keys
// this client holds a fill lease for are sent as lease fills to their
// primary owner — a fill the server refuses (LEASE_LOST) is a successful
// no-op, because Options.Leases declares the client's SETs read-through
// fills whenever a lease is held. The rest go down the ordinary user-SET
// path. Caller holds c.mu.RLock.
func (c *Client) setBatchLeased(keys []uint64, bt batchTrace, value func(i int) []byte) error {
	var fills []int
	var grants map[int]*leaseGrant
	rest := make([]int, 0, len(keys))
	for i, k := range keys {
		if c.grantsN.Load() > 0 {
			if g := c.takeGrant(k); g != nil {
				if grants == nil {
					grants = make(map[int]*leaseGrant)
				}
				fills = append(fills, i)
				grants[i] = g
				continue
			}
		}
		rest = append(rest, i)
	}
	if len(fills) > 0 {
		if err := c.fillLeases(keys, fills, grants, bt, value); err != nil {
			return err
		}
	}
	if len(rest) == 0 {
		return nil
	}
	if len(rest) < len(keys) {
		rk := make([]uint64, len(rest))
		for j, i := range rest {
			rk[j] = keys[i]
		}
		rvalue := func(j int) []byte { return value(rest[j]) }
		if c.effReplicas() > 1 {
			return c.setBatchReplicated(rk, bt, rvalue)
		}
		return c.setBatchPlain(rk, bt, rvalue)
	}
	if c.effReplicas() > 1 {
		return c.setBatchReplicated(keys, bt, value)
	}
	return c.setBatchPlain(keys, bt, value)
}

// fillLeases writes lease fills to each key's primary owner, pipelined
// per member with replay-once recovery. Whatever happens, every grant's
// done channel is closed on the way out so local waiters re-poll instead
// of sleeping out their cap. Under replication an applied fill is
// propagated to the remaining owners as a conditional background repair.
func (c *Client) fillLeases(keys []uint64, idxs []int, grants map[int]*leaseGrant, bt batchTrace, value func(i int) []byte) error {
	defer func() {
		for _, g := range grants {
			close(g.done)
		}
	}()
	sc := getBatchScratch()
	defer sc.release()
	subs, err := c.partitionIdx(sc, keys, idxs)
	if err != nil {
		return err
	}
	lockSubs(subs)
	defer unlockSubs(subs)

	for _, s := range subs {
		s.err = s.enqueueFills(c.dial, keys, grants, value, bt)
	}
	rf := c.effReplicas()
	for _, s := range subs {
		if s.err == nil {
			s.err = c.readFills(s, keys, rf, bt, value)
		}
		if s.err != nil {
			if s.delivered > 0 {
				dropSubs(subs)
				return s.err
			}
			s.nc.drop()
			s.nc.redials.Add(1)
			if err := s.enqueueFills(c.dial, keys, grants, value, bt); err != nil {
				dropSubs(subs)
				return err
			}
			if err := c.readFills(s, keys, rf, bt, value); err != nil {
				dropSubs(subs)
				return err
			}
		}
	}
	return nil
}

// enqueueFills dials (if needed), pipelines the sub-batch's lease fills
// and flushes.
func (s *subBatch) enqueueFills(dial DialFunc, keys []uint64, grants map[int]*leaseGrant, value func(i int) []byte, bt batchTrace) error {
	cl, err := s.nc.client(dial)
	if err != nil {
		return err
	}
	for _, i := range s.idx {
		if bt.traced {
			err = cl.EnqueueSetLeaseTraced(keys[i], grants[i].token, bt.tc, value(i))
		} else {
			err = cl.EnqueueSetLease(keys[i], grants[i].token, value(i))
		}
		if err != nil {
			return err
		}
	}
	return cl.Flush()
}

// readFills drains one sub-batch's lease-fill responses. OK caches the
// value near (it is the key's current version) and, under replication,
// schedules its propagation; LEASE_LOST counts and moves on — fresher
// state won, which is exactly the invariant the lease exists to keep.
func (c *Client) readFills(s *subBatch, keys []uint64, rf int, bt batchTrace, value func(i int) []byte) error {
	cl := s.nc.cl
	for _, i := range s.idx[s.delivered:] {
		resp, err := cl.ReadResponse()
		if err != nil {
			return err
		}
		c.observeEpoch(resp.Epoch)
		s.nc.sets.Add(1)
		s.delivered++
		switch resp.Status {
		case wire.StatusOK:
			if c.near != nil {
				c.near.store(keys[i], resp.Version, value(i), time.Now())
			}
			if rf > 1 {
				if owners := c.ring.OwnersFor(keys[i], rf); len(owners) > 1 {
					c.scheduleRepair(keys[i], resp.Version, value(i), owners[1:], bt)
				}
			}
		case wire.StatusLeaseLost:
			c.leaseLost.Add(1)
			if c.near != nil {
				c.near.remove(keys[i])
			}
		default:
			return fmt.Errorf("cluster: unexpected LEASE SET response %v from %s", resp.Status, s.nc.addr)
		}
	}
	return nil
}

// LeaseCounters returns the router's lease/near-cache tallies — GETs
// served from the near-cache, zero-token stale hints served as hits,
// fill leases granted to this client, fills refused as LEASE_LOST, and
// keys that waited on another caller's fill (locally or by polling). It
// implements load.LeaseReporter.
func (c *Client) LeaseCounters() (nearHits, staleHints, grants, lost, waits uint64) {
	return c.nearHits.Load(), c.staleHints.Load(), c.leaseGrants.Load(), c.leaseLost.Load(), c.leaseWaits.Load()
}

// NearCacheStats returns the near-cache's counters; all zero when the
// near-cache is disabled.
func (c *Client) NearCacheStats() NearCacheCounters {
	if c.near == nil {
		return NearCacheCounters{}
	}
	return c.near.snapshot()
}
