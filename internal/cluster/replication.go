package cluster

import (
	"fmt"
	"time"

	"repro/internal/wire"
)

// This file implements R-way replication on top of the routing client:
// quorum writes, fallback reads, and background read repair. The ring
// chooses each key's replica set (Ring.OwnersFor); the client makes the
// set behave like one logical copy that survives node loss.
//
// Invariants the implementation maintains:
//
//   - visit is called exactly once per key of a GetBatch, whatever mix of
//     misses, node failures and fallbacks resolved it.
//   - A read errors only when every owner of the key was unreachable; one
//     authoritative MISS resolves the key as a miss, one hit resolves it as
//     a hit.
//   - A write errors only when fewer than W owners acknowledged it.
//   - Every repair write carries wire.SetFlagRepair, so server-side and
//     router-side counters never mix maintenance churn into user traffic.

// repairQueueDepth bounds the background read-repair queue. When the queue
// is full new repairs are shed (and counted) rather than blocking the read
// path: a shed repair is retried naturally by the next fallback read of the
// same key.
const repairQueueDepth = 1024

// repairTask asks the repair worker to re-SET key=val on the owners that
// were seen missing or unreachable. ver is the version the value was
// observed at (a fallback hit) or stored under (a quorum write); the
// repair carries it as a conditional VERSIONED write, so however long the
// task queues, it can never overwrite a value a concurrent user SET stored
// after this one was observed.
type repairTask struct {
	key   uint64
	ver   uint64
	val   []byte
	addrs []string
	// tomb marks a delete repair: the write propagated is a TOMBSTONE SET
	// at ver (val is nil) rather than a value.
	tomb bool

	// bt carries the originating batch's trace context across the queue:
	// a repair caused by a sampled read or write is itself traced, so the
	// owner that receives it records a span under the same trace ID — the
	// last hop of the request's cluster-wide path.
	bt batchTrace
}

// ReplicationCounters is the router's replication telemetry; see
// Client.Replication.
type ReplicationCounters struct {
	// FallbackHits counts GETs served by a non-primary replica after
	// earlier owners missed or were unreachable — each one is a read that
	// an unreplicated cluster would have lost or missed.
	FallbackHits uint64
	// RepairsScheduled counts repair tasks queued by fallback hits and
	// partially-acknowledged writes.
	RepairsScheduled uint64
	// RepairsApplied counts repair SETs acknowledged by the stale owner.
	RepairsApplied uint64
	// RepairsDropped counts repairs shed because the queue was full.
	RepairsDropped uint64
	// RepairsStale counts synchronous maintenance copies (warm-up,
	// migration) a destination rejected as version-stale because it
	// already held a strictly newer value — lost-update races the version
	// check won. Async read repairs rejected at the server's queue are
	// visible in the servers' STATS StaleRepairs instead.
	RepairsStale uint64
}

// Replication returns the cluster-wide replication telemetry. All zeros on
// an unreplicated client.
func (c *Client) Replication() ReplicationCounters {
	return ReplicationCounters{
		FallbackHits:     c.fallbackHits.Load(),
		RepairsScheduled: c.repairsScheduled.Load(),
		RepairsApplied:   c.repairsApplied.Load(),
		RepairsDropped:   c.repairsDropped.Load(),
		RepairsStale:     c.staleRepairs.Load(),
	}
}

// RepairsDone reports completed background repair writes; it implements
// load.RepairReporter so the harness can price replication's maintenance
// traffic.
func (c *Client) RepairsDone() uint64 { return c.repairsApplied.Load() }

// StaleRepairs reports this router's maintenance copies rejected by their
// destination as version-stale; it implements load.StaleReporter.
func (c *Client) StaleRepairs() uint64 { return c.staleRepairs.Load() }

// scheduleRepair queues a background re-SET of key=val, observed at ver,
// at addrs. Caller holds c.mu (either side); val may alias a connection
// buffer and is copied here.
func (c *Client) scheduleRepair(key, ver uint64, val []byte, addrs []string, bt batchTrace) {
	if c.repairClosed || len(addrs) == 0 {
		return
	}
	t := repairTask{
		key:   key,
		ver:   ver,
		val:   append([]byte(nil), val...),
		addrs: append([]string(nil), addrs...),
		bt:    bt,
	}
	c.repairsScheduled.Add(1)
	select {
	case c.repairCh <- t:
	default:
		c.repairsDropped.Add(1)
	}
}

// repairLoop is the background worker: it drains the repair queue until
// Close, re-SETting stale replicas with the repair flag.
func (c *Client) repairLoop() {
	defer close(c.repairDone)
	for t := range c.repairCh {
		c.applyRepair(t)
	}
}

// applyRepair writes one queued repair to each of its target owners. A
// target that left the cluster is skipped; a target that cannot be
// reached gets its write parked as a hint on a live member instead
// (hinted handoff, wire v8) — the owner may be dead rather than slow, and
// the hint is replayed to it when it answers again, so a W<R write (or a
// fallback-detected stale replica) converges on rejoin without waiting
// for the next read of the key.
//
// c.mu is held only for the membership lookup, never across the network
// write: a repair dialing a slow or dead node must not block a pending
// membership change — and, through the RWMutex's writer queue, every other
// read and write on the client — for a connect timeout. The price is that
// a member removed concurrently with the lookup may receive one final
// repair write, which is harmless: it is a flagged cache SET to a node
// already out of the ring.
func (c *Client) applyRepair(t repairTask) {
	for _, addr := range t.addrs {
		c.mu.RLock()
		closed, nc := c.repairClosed, c.nodes[addr]
		c.mu.RUnlock()
		if closed {
			return
		}
		if nc == nil {
			continue
		}
		nc.mu.Lock()
		// Repair carries the ASYNC flag too: the server applies it through
		// its bounded maintenance queue (and may shed it under overload),
		// which is fine — a shed repair is retried by the next fallback
		// read of the key, exactly like one shed from this router's own
		// queue. It also carries the observed version (VERSIONED), checked
		// by the server when the queue drains: a repair that queued behind
		// a user SET of the same key is rejected as stale instead of
		// reinstating the older value, however deep either queue ran.
		err := nc.withRetry(c.dial, func(cl *wire.Client) error {
			flags := wire.SetFlagRepair | wire.SetFlagAsync
			var err error
			switch {
			case t.tomb:
				_, _, err = cl.SetTombstone(t.key, flags, t.ver)
			case t.bt.traced:
				_, _, err = cl.SetVersionedTraced(t.key, flags, t.ver, t.bt.tc, t.val)
			default:
				_, _, err = cl.SetVersioned(t.key, flags, t.ver, t.val)
			}
			return err
		})
		if err == nil {
			nc.repairs.Add(1)
			c.repairsApplied.Add(1)
		}
		nc.mu.Unlock()
		if err != nil {
			c.mu.RLock()
			if !c.repairClosed {
				c.hintHandoff(addr, t.key, t.tomb, t.ver, t.val)
			}
			c.mu.RUnlock()
		}
	}
}

// getBatchReplicated resolves a GET batch against R-way replica sets in up
// to R rounds. Round j sends each still-unresolved key to its j-th owner;
// hits resolve immediately (scheduling repair of the owners that came up
// empty), misses resolve at the last owner, and connection failures push
// the key to the next round.
//
// With leases on, round 0 (the primary) goes out as GETL: a grant is an
// authoritative primary miss plus the fill lease, so the key still falls
// back through the replicas — a fallback hit repairs the primary, which
// invalidates the lease server-side. A bare zero-token LEASE (someone
// else holds the fill) appends the key's index to waiters for the
// caller's resolution loop; waiters may be nil only when leases are off.
// Caller holds c.mu.RLock.
func (c *Client) getBatchReplicated(keys []uint64, bt batchTrace, waiters *[]int, visit func(i int, hit bool, value []byte)) error {
	rf := c.effReplicas()
	owners := make([][]string, len(keys))
	for i, k := range keys {
		owners[i] = c.ring.OwnersFor(k, rf)
		if len(owners[i]) == 0 {
			return fmt.Errorf("cluster: empty ring")
		}
	}

	pending := make([]int, len(keys))
	for i := range pending {
		pending[i] = i
	}
	// missedAt[i] lists the owners that answered an authoritative MISS for
	// key i. Only those are repair targets on a later fallback hit — an
	// owner that merely failed its connection may be dead, and aiming
	// repairs at a corpse would grind the repair worker on failed dials
	// while genuinely stale replicas queue behind it. (Its copy, if any,
	// is also not known stale.)
	missedAt := make([][]string, len(keys))
	var next []int
	var unresolved int
	var lastErr error

	for round := 0; round < rf && len(pending) > 0; round++ {
		subs := c.partitionRound(pending, owners, round)
		// Only the primary round leases: fallback rounds are reads of
		// replicas that may legitimately be empty, and granting fills
		// against them would mint one lease per replica per key.
		lease := c.leases && round == 0
		lockSubs(subs)
		for _, s := range subs {
			s.err = s.enqueueGetsLease(c.dial, keys, bt, lease)
		}
		next = next[:0]
		last := round == rf-1
		for _, s := range subs {
			if s.err == nil {
				s.err = c.readGetsReplicated(s, keys, bt, round, last, missedAt, &next, waiters, visit)
			}
			if s.err != nil && s.delivered == 0 {
				// Nothing of this sub was delivered; redial once and replay.
				s.nc.drop()
				s.nc.redials.Add(1)
				if err := s.enqueueGetsLease(c.dial, keys, bt, lease); err != nil {
					s.err = err
				} else {
					s.err = c.readGetsReplicated(s, keys, bt, round, last, missedAt, &next, waiters, visit)
				}
			}
			if s.err != nil {
				// The owner is unreachable (or its stream is corrupt): drop
				// the connection and fail the undelivered keys over to
				// their next owner — or resolve them, if this was the last.
				s.nc.drop()
				lastErr = s.err
				for _, i := range s.idx[s.delivered:] {
					switch {
					case !last:
						next = append(next, i)
					case missedAt[i] != nil:
						// Some owner authoritatively missed: the key is a
						// miss, not a lost read.
						visit(i, false, nil)
					default:
						unresolved++
					}
				}
			}
		}
		unlockSubs(subs)
		pending, next = next, pending
	}

	if unresolved > 0 {
		return fmt.Errorf("cluster: %d keys unreadable on all %d replicas: %w", unresolved, rf, lastErr)
	}
	return nil
}

// partitionRound splits the pending keys by their round-th owner, in
// deterministic (address-sorted) order for deadlock-free locking. Caller
// holds c.mu.
func (c *Client) partitionRound(pending []int, owners [][]string, round int) []*subBatch {
	byAddr := make(map[string]*subBatch)
	var subs []*subBatch
	for _, i := range pending {
		addr := owners[i][round]
		sub := byAddr[addr]
		if sub == nil {
			sub = &subBatch{nc: c.nodes[addr]}
			byAddr[addr] = sub
			subs = append(subs, sub)
		}
		sub.idx = append(sub.idx, i)
	}
	sortSubs(subs)
	return subs
}

// readGetsReplicated drains one sub-batch's GET (or, in a leased round 0,
// GETL) responses during a fallback round. Hits are delivered to visit,
// with repair scheduled for the owners that authoritatively missed in
// earlier rounds; misses either fall to the next round or, on the last
// owner, resolve as authoritative misses. LEASE responses are primary
// misses: a grant is recorded and the key falls back, a stale hint serves
// as a hit, and a bare zero-token response joins waiters.
func (c *Client) readGetsReplicated(s *subBatch, keys []uint64, bt batchTrace, round int, last bool,
	missedAt [][]string, next *[]int, waiters *[]int, visit func(i int, hit bool, value []byte)) error {
	cl := s.nc.cl
	var resp wire.Response
	for _, i := range s.idx[s.delivered:] {
		if err := cl.ReadResponse(&resp); err != nil {
			return err
		}
		c.observeEpoch(resp.Epoch)
		switch resp.Status {
		case wire.StatusHit:
			s.nc.hits.Add(1)
			if round > 0 {
				c.fallbackHits.Add(1)
			}
			if len(missedAt[i]) > 0 {
				c.scheduleRepair(keys[i], resp.Version, resp.Value, missedAt[i], bt)
			}
			s.nc.gets.Add(1)
			s.delivered++
			val := resp.Value
			if c.near != nil {
				val, _ = c.near.reconcile(keys[i], resp.Version, resp.Value, time.Now())
			}
			if c.grantsN.Load() > 0 {
				// A fallback owner had the key after the primary granted a
				// fill: the repair scheduled above will invalidate the lease
				// server-side; drop the stray grant so a later user SET of
				// the key isn't misrouted as a discardable fill.
				c.finishGrant(keys[i])
			}
			visit(i, true, val)
		case wire.StatusMiss:
			s.nc.misses.Add(1)
			s.nc.gets.Add(1)
			s.delivered++
			missedAt[i] = append(missedAt[i], s.nc.addr)
			if last {
				visit(i, false, nil)
			} else {
				*next = append(*next, i)
			}
		case wire.StatusLease:
			s.nc.misses.Add(1)
			s.nc.gets.Add(1)
			s.delivered++
			switch {
			case resp.LeaseToken != 0:
				c.recordGrant(keys[i], resp.LeaseToken, resp.LeaseTTL)
				missedAt[i] = append(missedAt[i], s.nc.addr)
				if last {
					visit(i, false, nil)
				} else {
					*next = append(*next, i)
				}
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
			return fmt.Errorf("cluster: unexpected GET response %v from %s", resp.Status, s.nc.addr)
		}
	}
	return nil
}

// setBatchReplicated writes each key to all R of its owners and succeeds
// only if every key is acknowledged by at least W of them. Owners whose
// write failed while the key still met quorum are queued for background
// repair, so a transiently dead node converges instead of staying stale.
// Caller holds c.mu.RLock.
func (c *Client) setBatchReplicated(keys []uint64, bt batchTrace, value func(i int) []byte) error {
	rf := c.effReplicas()
	w := c.effQuorum(rf)
	owners := make([][]string, len(keys))
	byAddr := make(map[string]*subBatch)
	var subs []*subBatch
	for i, k := range keys {
		owners[i] = c.ring.OwnersFor(k, rf)
		if len(owners[i]) == 0 {
			return fmt.Errorf("cluster: empty ring")
		}
		for _, addr := range owners[i] {
			sub := byAddr[addr]
			if sub == nil {
				sub = &subBatch{nc: c.nodes[addr]}
				byAddr[addr] = sub
				subs = append(subs, sub)
			}
			sub.idx = append(sub.idx, i)
		}
	}
	sortSubs(subs)
	lockSubs(subs)
	defer unlockSubs(subs)

	for _, s := range subs {
		s.err = s.enqueueSets(c.dial, keys, value, bt)
	}
	acks := make([]int, len(keys))
	// vers[i] is the highest version any owner stored key i under; the
	// repair of a failed owner carries it, so the repair is conditional on
	// exactly the write it is completing.
	vers := make([]uint64, len(keys))
	var failed [][]string // lazily allocated: owner addrs whose write was lost, per key
	var lastErr error
	for _, s := range subs {
		if s.err == nil {
			s.err = c.readSetsAcked(s, acks, vers)
		}
		if s.err != nil && s.delivered == 0 {
			s.nc.drop()
			s.nc.redials.Add(1)
			if err := s.enqueueSets(c.dial, keys, value, bt); err != nil {
				s.err = err
			} else {
				s.err = c.readSetsAcked(s, acks, vers)
			}
		}
		if s.err != nil {
			s.nc.drop()
			lastErr = s.err
			if failed == nil {
				failed = make([][]string, len(keys))
			}
			for _, i := range s.idx[s.delivered:] {
				failed[i] = append(failed[i], s.nc.addr)
			}
		}
	}

	for i := range keys {
		if acks[i] < w {
			return fmt.Errorf("cluster: SET %d acknowledged by %d of %d owners, write quorum %d: %w",
				keys[i], acks[i], rf, w, lastErr)
		}
	}
	for i := range keys {
		if failed != nil && len(failed[i]) > 0 {
			c.scheduleRepair(keys[i], vers[i], value(i), failed[i], bt)
		}
		if c.near != nil {
			c.near.store(keys[i], vers[i], value(i), time.Now())
		}
	}
	return nil
}

// readSetsAcked drains one sub-batch's SET responses, crediting one ack per
// key as it goes, recording the highest version the write was stored under,
// and observing the topology epoch each response carries.
func (c *Client) readSetsAcked(s *subBatch, acks []int, vers []uint64) error {
	cl := s.nc.cl
	var resp wire.Response
	for _, i := range s.idx[s.delivered:] {
		if err := cl.ReadResponse(&resp); err != nil {
			return err
		}
		c.observeEpoch(resp.Epoch)
		if resp.Status != wire.StatusOK {
			return fmt.Errorf("cluster: unexpected SET response %v from %s", resp.Status, s.nc.addr)
		}
		s.nc.sets.Add(1)
		s.delivered++
		acks[i]++
		if resp.Version > vers[i] {
			vers[i] = resp.Version
		}
	}
	return nil
}
