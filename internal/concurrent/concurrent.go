// Package concurrent implements the paper's motivating software use case
// (Section 1, citing Adas et al. and RocksDB's block cache): a concurrent
// key-value cache built from a set-associative layout. Because the buckets
// of a set-associative cache are independent, each can be guarded by its own
// mutex; a request only contends with requests that hash to the same bucket,
// so throughput scales with the number of buckets. This is exactly the
// "smaller α, bigger benefits" side of the paper's tradeoff — and the
// library's miss-cost analysis (experiments E1/E2) quantifies the other
// side.
//
// Each bucket is a flat α-way set. The cache holds two arrays of k slots,
// one for keys and one for values; bucket b owns slots [b·α, (b+1)·α) and
// a count n of the occupied ones, which are always the first n. A lookup
// is a linear scan of at most α keys — with α = Θ(log k) that is a few
// cache lines, and no map or list node is touched. Under the default LRU
// policy the slot order is the recency order: slot 0 is the most recently
// used, a hit rotates its prefix so the item lands in slot 0, and the
// victim is slot n−1, so the set needs no per-entry allocation at all.
// Any other policy.Policy (clock, FIFO, LFU, LRU-K, ...) runs beside the
// slots as one instance per bucket: it decides hits and victims, and the
// slots hold the values in no particular order. Past α = scanMax a scan
// and the order-keeping shifts cost more than a map lookup, so such sets
// keep a key→slot index beside their slots and, under LRU, a doubly-linked
// recency list over slot offsets instead of the slot order.
//
// The cache also supports *online* incremental rehashing: the ⟨LRU⟩IF
// algorithm of Section 6.1, ported from internal/core to the concurrent
// setting. A rehash draws a fresh indexing hash while the old one stays
// live; items migrate to their new bucket lazily when touched, and every
// miss force-evicts a bounded number of not-yet-remapped items, so no
// stop-the-world flush is ever needed and no entry is dropped except by
// eviction. Rehash *initiation* does pause concurrent operations briefly —
// marking every resident as awaiting remapping takes the cache-wide write
// lock for O(residents) — but the migration itself runs under per-bucket
// locks amortized across subsequent traffic. At most two hash functions
// are live at any time.
package concurrent

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hashfn"
	"repro/internal/policy"
	"repro/internal/trace"
)

// Cache is a thread-safe set-associative key-value cache with per-bucket
// locking and optional online rehashing. The zero value is not usable;
// call New.
type Cache struct {
	buckets []bucket
	// keys and vals are the k slots; bucket b owns [b·α, b·α+n). A slot is
	// read or written only under its bucket's lock.
	keys []trace.Item
	vals []interface{}
	// index maps each resident key to its slot offset within its bucket,
	// one map per bucket; nil when α ≤ scanMax and slots are scanned.
	index []map[trace.Item]int32
	// links is the recency order of LRU sets past scanMax; see link. nil
	// otherwise.
	links []link
	alpha int
	seeds *hashfn.SeedSequence

	// pair is the atomically published {hasher, oldHasher} snapshot. When no
	// migration is in flight (pair.old == nil) operations run a lock-free
	// fast path: load the pair, lock the one target bucket, and re-validate
	// that the pair is unchanged. Rehash publishes its new pair *before* the
	// marking pass touches any bucket lock, so a fast-path operation that
	// re-validates successfully under its bucket lock is guaranteed either
	// to run entirely before the rehash is visible (and its entries are then
	// marked by the pass like any other resident) or to detect the swap and
	// retry on the slow path. Reads therefore touch no shared cache line
	// beyond their own bucket while the cache is stable.
	pair atomic.Pointer[hasherPair]

	// rehashMu serializes the slow path against rehash initiation and
	// migration completion. Operations take the read side only while a
	// migration is in flight (or when fast-path validation fails); Rehash
	// and maybeFinishMigration take the write side.
	rehashMu sync.RWMutex

	// migrating mirrors oldHasher != nil so the post-operation fast path can
	// check for migration completion without taking rehashMu.
	migrating atomic.Bool
	// pending counts items still resident under the old hash.
	pending atomic.Int64
	// sweepCursor is the next bucket index the forced-eviction sweep visits.
	sweepCursor atomic.Int64

	rehashEveryMisses    uint64
	rehashEveryConflicts uint64
	migrationPerMiss     int

	hits              atomic.Uint64
	misses            atomic.Uint64
	evictions         atomic.Uint64
	conflictEvictions atomic.Uint64
	flushEvictions    atomic.Uint64
	rehashes          atomic.Uint64
	// occupancy tracks the total entry count so evictions can be classified
	// as conflict (free slots existed elsewhere) without a global lock.
	occupancy atomic.Int64
}

// hasherPair is one immutable snapshot of the live indexing function(s).
// old is non-nil exactly while an incremental migration is in progress.
type hasherPair struct {
	hasher *hashfn.Random
	old    *hashfn.Random
}

// disableFastPath forces every operation onto the rehashMu.RLock slow path.
// It exists only so the before/after benchmark can measure what the atomic
// snapshot buys; it is never set outside tests.
var disableFastPath bool

// scanMax is the largest α whose sets are searched by a linear scan and, under
// LRU, kept in recency order. Up to it a scan of α contiguous keys beats a
// map lookup; well past it the scan and the order-keeping shifts cost O(α)
// per operation. At α = 128 (BenchmarkAlphaSweepParallel) the index and
// recency list already match or beat the scan.
const scanMax = 64

// link is one node of an indexed LRU set's recency list. Bucket b's α+1
// links start at b·(α+1): link i belongs to slot b·α+i, and link α is the
// sentinel of the circular list, whose next is the most recently used slot
// and whose prev is the least. prev and next are offsets within the bucket.
// The list, not a policy.LRU beside the slots: the LRU's own node map on
// top of the index costs a second map operation per access, and lost every
// α ≥ 128 row of BenchmarkAlphaSweepParallel to a value map plus a
// policy.LRU with no slots at all.
type link struct{ prev, next int32 }

// bucket is one set's header; its slots live in Cache.keys and Cache.vals.
// On 64-bit platforms it is exactly one 64-byte cache line, so buckets do
// not share lines.
type bucket struct {
	mu sync.Mutex
	n  int32 // occupied slots
	// pol is the bucket's replacement policy, or nil when the slot order
	// itself is the LRU order. With a policy the slots are unordered.
	pol policy.Policy
	// old marks residents that have not been remapped since the last rehash
	// began. Items in old are indexed by the *previous* hash function.
	old map[trace.Item]struct{}

	// Per-shard Get counters, guarded by mu.
	hits      uint64
	misses    uint64
	evictions uint64
}

// Config describes a concurrent cache.
type Config struct {
	// Capacity is the total number of entries k.
	Capacity int
	// Alpha is the bucket size α; smaller α means more buckets and less
	// lock contention, at the paging cost the paper characterizes. Alpha
	// must divide Capacity. The paper's advice: α slightly above log₂ k
	// captures nearly all of full associativity's hit rate.
	Alpha int
	// Seed drives the indexing hash and the rehash seed schedule.
	Seed uint64
	// Policy stamps out one replacement-policy instance per bucket.
	// Nil, or a factory that builds *policy.LRU, means LRU kept in the
	// slots themselves: in their order up to α = 64, on a per-set recency
	// list over them above.
	Policy policy.Factory
	// RehashEveryMisses, when nonzero, starts an online incremental rehash
	// every RehashEveryMisses Get misses — the paper's "rehash every poly(k)
	// misses" schedule (Section 6), which keeps the cache competitive on
	// arbitrarily long request sequences. DefaultEveryMisses derives the
	// paper-guided value from the capacity.
	RehashEveryMisses uint64
	// RehashEveryConflicts, when nonzero, additionally starts a rehash every
	// RehashEveryConflicts conflict evictions (evictions that happened while
	// free slots existed elsewhere). Conflict evictions are exactly the
	// currency in which an unlucky — or adversarially exploited — hash
	// function pays, so this is an adaptive trigger: a well-hashed workload
	// almost never trips it, while a Theorem 4 cycler does so long before
	// the miss-count schedule would.
	RehashEveryConflicts uint64
	// MigrationPerMiss bounds the forced evictions of not-yet-remapped items
	// performed per miss during a migration; zero means 1 (the gentlest
	// schedule the paper allows).
	MigrationPerMiss int
}

// New builds a concurrent cache.
func New(cfg Config) (*Cache, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("concurrent: capacity %d must be positive", cfg.Capacity)
	}
	if cfg.Alpha <= 0 || cfg.Alpha > cfg.Capacity || cfg.Capacity%cfg.Alpha != 0 {
		return nil, fmt.Errorf("concurrent: alpha %d must divide capacity %d", cfg.Alpha, cfg.Capacity)
	}
	n := cfg.Capacity / cfg.Alpha
	c := &Cache{
		buckets:              make([]bucket, n),
		keys:                 make([]trace.Item, cfg.Capacity),
		vals:                 make([]interface{}, cfg.Capacity),
		seeds:                hashfn.NewSeedSequence(cfg.Seed),
		alpha:                cfg.Alpha,
		rehashEveryMisses:    cfg.RehashEveryMisses,
		rehashEveryConflicts: cfg.RehashEveryConflicts,
		migrationPerMiss:     cfg.MigrationPerMiss,
	}
	if c.migrationPerMiss <= 0 {
		c.migrationPerMiss = 1
	}
	c.pair.Store(&hasherPair{hasher: hashfn.NewRandom(c.seeds.Next(), n)})
	// LRU lives in the slots (their order, or past scanMax the links);
	// any other policy gets one instance per bucket, the probed one
	// included.
	lru := true
	if cfg.Policy != nil {
		first := cfg.Policy(cfg.Alpha)
		if _, lru = first.(*policy.LRU); !lru {
			c.buckets[0].pol = first
			for i := 1; i < n; i++ {
				c.buckets[i].pol = cfg.Policy(cfg.Alpha)
			}
		}
	}
	if cfg.Alpha > scanMax {
		c.index = make([]map[trace.Item]int32, n)
		for i := range c.index {
			c.index[i] = make(map[trace.Item]int32, cfg.Alpha)
		}
		if lru {
			c.links = make([]link, n*(cfg.Alpha+1))
			for i := range n {
				l := c.linksOf(i)
				l[cfg.Alpha] = link{int32(cfg.Alpha), int32(cfg.Alpha)}
			}
		}
	}
	return c, nil
}

// DefaultEveryMisses returns the paper-guided automatic rehash period for a
// cache of capacity k: k·⌈log₂ k⌉ misses. Section 6 requires only that the
// period be poly(k); the k log k choice is the smallest natural ω(k) period,
// which amortizes the O(k) worst-case cost of one migration to o(1) per
// miss while still rehashing often enough that no fixed hash function is
// exposed to the adversary's Θ(k^1.01)-length defeating sequence between
// flushes.
func DefaultEveryMisses(k int) uint64 {
	if k <= 1 {
		return 1
	}
	log := 0
	for n := k - 1; n > 0; n >>= 1 {
		log++
	}
	return uint64(k) * uint64(log)
}

// Get returns the value cached under key, if any, updating recency. During a
// migration a hit on a not-yet-remapped item moves it to its new bucket, and
// a miss force-evicts up to MigrationPerMiss old residents (Section 6.1).
func (c *Cache) Get(key uint64) (interface{}, bool) {
	item := trace.Item(key)
	nb, ob, slow := c.acquire(item)
	bi, s := c.find(nb, ob, item)
	var v interface{}
	if s >= 0 {
		// Rewriting the value records the hit; a not-yet-remapped item
		// moves to its new bucket, which may evict from there (Section 6.1).
		v = c.vals[s]
		c.write(nb, bi, s, item, v)
		c.buckets[nb].hits++
	} else {
		c.buckets[nb].misses++
	}
	c.unlockPair(nb, ob)
	if slow {
		if s < 0 && c.migrating.Load() {
			c.migrateSteps()
		}
		c.rehashMu.RUnlock()
		c.maybeFinishMigration()
	}

	if s >= 0 {
		c.hits.Add(1)
		return v, true
	}
	m := c.misses.Add(1)
	if c.rehashEveryMisses > 0 && m%c.rehashEveryMisses == 0 {
		// Initiate asynchronously so the request that trips the schedule
		// does not absorb the O(residents) marking pause itself. At most
		// one goroutine per period crossing; Rehash serializes internally.
		go c.Rehash()
	}
	return nil, false
}

// acquire locks the bucket(s) item can live in: nb under the live hash and,
// while a migration is in flight, ob under the previous one (ob == nb
// otherwise). With no migration in flight it takes only nb's lock and
// re-validates the pair under it — the fast path; see the pair field. Else
// it returns slow = true and also holds rehashMu's read side, under which
// the pair is stable. release undoes it.
func (c *Cache) acquire(item trace.Item) (nb, ob int, slow bool) {
	if p := c.pair.Load(); p.old == nil && !disableFastPath {
		nb = p.hasher.Bucket(item)
		b := &c.buckets[nb]
		b.mu.Lock()
		if c.pair.Load() == p {
			return nb, nb, false
		}
		b.mu.Unlock()
	}
	c.rehashMu.RLock()
	p := c.pair.Load()
	nb = p.hasher.Bucket(item)
	ob = nb
	if p.old != nil {
		ob = p.old.Bucket(item)
	}
	c.lockPair(nb, ob)
	return nb, ob, true
}

// release drops what acquire took and, after a slow-path operation, retires
// the old hash once the migration has drained.
func (c *Cache) release(nb, ob int, slow bool) {
	c.unlockPair(nb, ob)
	if slow {
		c.rehashMu.RUnlock()
		c.maybeFinishMigration()
	}
}

// lockPair locks buckets i and j — once when they are the same bucket, in
// index order otherwise, avoiding deadlock between operations whose
// old/new buckets cross.
func (c *Cache) lockPair(i, j int) {
	if i > j {
		i, j = j, i
	}
	c.buckets[i].mu.Lock()
	if j != i {
		c.buckets[j].mu.Lock()
	}
}

func (c *Cache) unlockPair(i, j int) {
	c.buckets[i].mu.Unlock()
	if j != i {
		c.buckets[j].mu.Unlock()
	}
}

// find locates item given the buckets acquire returned: its slot s in the
// live bucket nb or, during a migration, in the old bucket ob when it
// still awaits remapping there. bi is the bucket holding s; s < 0 means
// absent. Caller holds both locks.
func (c *Cache) find(nb, ob int, item trace.Item) (bi, s int) {
	if s = c.slotOf(nb, item); s >= 0 || ob == nb {
		return nb, s
	}
	if _, isOld := c.buckets[ob].old[item]; isOld {
		return ob, c.slotOf(ob, item)
	}
	return nb, -1
}

// slotOf returns the slot holding item in bucket bi, or -1. Caller holds
// the bucket's lock.
func (c *Cache) slotOf(bi int, item trace.Item) int {
	lo := bi * c.alpha
	if c.index != nil {
		if off, ok := c.index[bi][item]; ok {
			return lo + int(off)
		}
		return -1
	}
	for i, k := range c.keys[lo : lo+int(c.buckets[bi].n)] {
		if k == item {
			return lo + i
		}
	}
	return -1
}

// write stores item→value in its live bucket nb, given where find located
// it. An overwrite of a not-yet-remapped item drops the stale resident from
// the old bucket and stores it fresh in nb. It returns the (single)
// reported victim. Caller holds the locks of nb and bi.
func (c *Cache) write(nb, bi, s int, item trace.Item, value interface{}) (victim trace.Item, didEvict bool) {
	if s >= 0 {
		if bi != nb {
			c.remove(bi, s)
			s = -1
		} else {
			c.clearOldMark(&c.buckets[nb], item)
		}
	}
	return c.store(nb, s, item, value)
}

// store writes item→value into bucket bi, where s is item's slot there or
// -1 when it is absent, and does the eviction bookkeeping. It returns the
// (single) reported victim. Caller holds the bucket's lock.
func (c *Cache) store(bi, s int, item trace.Item, value interface{}) (victim trace.Item, didEvict bool) {
	b := &c.buckets[bi]
	if s >= 0 {
		c.vals[c.touch(bi, s)] = value
		return 0, false
	}
	if b.pol == nil {
		if int(b.n) == c.alpha {
			last := (bi+1)*c.alpha - 1
			if c.links != nil {
				last = bi*c.alpha + int(c.linksOf(bi)[c.alpha].prev)
			}
			victim, didEvict = c.keys[last], true
			c.dropSlot(bi, last)
		}
	} else if _, victim, didEvict = b.pol.Request(item); didEvict {
		c.dropSlot(bi, c.slotOf(bi, victim))
	}
	if didEvict {
		c.clearOldMark(b, victim)
		b.evictions++
		c.evictions.Add(1)
		// Occupancy is unchanged (one out, one in); if the cache as a whole
		// still has free slots, this eviction is a pure conflict eviction —
		// the associativity restriction, not capacity, caused it.
		if c.occupancy.Load() < int64(c.Capacity()) {
			cv := c.conflictEvictions.Add(1)
			if c.rehashEveryConflicts > 0 && cv%c.rehashEveryConflicts == 0 {
				// Adaptive schedule: a burst of conflict evictions means the
				// current hash is being exploited; redraw it. Asynchronous
				// for the same reason as the miss-count trigger.
				go c.Rehash()
			}
		}
	} else {
		c.occupancy.Add(1)
	}
	// Non-lazy policies (flush-when-full) may evict a whole batch beyond the
	// single reported victim.
	if be, ok := b.pol.(policy.BatchEvictions); ok {
		for _, ev := range be.TakeEvictions() {
			if es := c.slotOf(bi, ev); es >= 0 {
				c.dropSlot(bi, es)
				c.clearOldMark(b, ev)
				b.evictions++
				c.evictions.Add(1)
				c.occupancy.Add(-1)
			}
		}
	}
	lo, n := bi*c.alpha, int(b.n)
	if c.ordered(b) {
		// Shift the occupied slots up one and put item in slot 0, its MRU
		// position.
		copy(c.keys[lo+1:lo+n+1], c.keys[lo:lo+n])
		copy(c.vals[lo+1:lo+n+1], c.vals[lo:lo+n])
		c.keys[lo], c.vals[lo] = item, value
	} else {
		c.keys[lo+n], c.vals[lo+n] = item, value
		if c.index != nil {
			c.index[bi][item] = int32(n)
		}
		if c.links != nil {
			pushFront(c.linksOf(bi), int32(n))
		}
	}
	b.n++
	return victim, didEvict
}

// ordered reports whether bucket b keeps LRU in its slot order.
func (c *Cache) ordered(b *bucket) bool { return b.pol == nil && c.links == nil }

// linksOf returns bucket bi's recency list; see link.
func (c *Cache) linksOf(bi int) []link {
	return c.links[bi*(c.alpha+1) : (bi+1)*(c.alpha+1)]
}

func unlink(l []link, o int32) {
	p, n := l[o].prev, l[o].next
	l[p].next = n
	l[n].prev = p
}

func pushFront(l []link, o int32) {
	s := int32(len(l) - 1)
	f := l[s].next
	l[o] = link{prev: s, next: f}
	l[f].prev = o
	l[s].next = o
}

// touch records a hit on slot s of bucket bi and returns the slot that holds
// the item afterwards. Under the in-slot LRU the item rotates to slot 0;
// otherwise the bucket's policy or recency list is told and the slot stays
// put. Caller holds the bucket's lock.
func (c *Cache) touch(bi, s int) int {
	lo := bi * c.alpha
	if pol := c.buckets[bi].pol; pol != nil {
		pol.Request(c.keys[s])
		return s
	}
	if c.links != nil {
		l := c.linksOf(bi)
		unlink(l, int32(s-lo))
		pushFront(l, int32(s-lo))
		return s
	}
	if s == lo {
		return s
	}
	k, v := c.keys[s], c.vals[s]
	copy(c.keys[lo+1:s+1], c.keys[lo:s])
	copy(c.vals[lo+1:s+1], c.vals[lo:s])
	c.keys[lo], c.vals[lo] = k, v
	return lo
}

// remove deletes the resident in slot s of bucket bi — no eviction is
// counted — and clears its awaiting-remap mark. Caller holds the bucket's
// lock.
func (c *Cache) remove(bi, s int) {
	b := &c.buckets[bi]
	item := c.keys[s]
	if b.pol != nil {
		b.pol.Delete(item)
	}
	c.dropSlot(bi, s)
	c.clearOldMark(b, item)
	c.occupancy.Add(-1)
}

// dropSlot empties slot s of bucket bi: in slot order, by shifting the
// later slots down; otherwise by moving the last occupied slot into it. It
// touches neither the policy nor any counter. Caller holds the bucket's
// lock.
func (c *Cache) dropSlot(bi, s int) {
	b := &c.buckets[bi]
	lo := bi * c.alpha
	end := lo + int(b.n) - 1
	if c.ordered(b) {
		copy(c.keys[s:end], c.keys[s+1:end+1])
		copy(c.vals[s:end], c.vals[s+1:end+1])
	} else {
		o, oe := int32(s-lo), int32(end-lo)
		if c.links != nil {
			// Unlink s, then re-point the last slot's neighbours at s.
			l := c.linksOf(bi)
			unlink(l, o)
			if o != oe {
				l[o] = l[oe]
				l[l[o].prev].next = o
				l[l[o].next].prev = o
			}
		}
		if c.index != nil {
			delete(c.index[bi], c.keys[s])
			if o != oe {
				c.index[bi][c.keys[end]] = o
			}
		}
		c.keys[s], c.vals[s] = c.keys[end], c.vals[end]
	}
	c.vals[end] = nil
	b.n--
}

// clearOldMark removes item's awaiting-remap marker, if present. Caller
// holds b.mu.
func (c *Cache) clearOldMark(b *bucket, item trace.Item) {
	if len(b.old) == 0 {
		return
	}
	if _, ok := b.old[item]; ok {
		delete(b.old, item)
		c.pending.Add(-1)
	}
}

// Put caches value under key, evicting from the target bucket if needed.
// It returns the evicted key and whether an eviction happened.
func (c *Cache) Put(key uint64, value interface{}) (evictedKey uint64, evicted bool) {
	item := trace.Item(key)
	nb, ob, slow := c.acquire(item)
	bi, s := c.find(nb, ob, item)
	victim, didEvict := c.write(nb, bi, s, item, value)
	c.release(nb, ob, slow)
	return uint64(victim), didEvict
}

// Update atomically reads and conditionally replaces the value cached
// under key: fn receives the current value (nil, false when absent) while
// the owning bucket's lock is held and returns the value to store plus
// whether to store it at all. A false second result leaves the cache
// untouched — the read-check-write is one critical section, so no
// concurrent Put or Update can interleave between fn's decision and the
// store. This is the primitive behind the server's versioned writes: a
// compare on the stored version and the conditional overwrite must be
// atomic or the lost-update race they exist to kill reopens at bucket
// scale.
//
// fn must not call back into the cache, and it may be invoked more than
// once for a single Update (a concurrent rehash can force the fast path to
// retry), so it must behave as a pure function of its argument. Update
// returns whether a store happened and, when it did, Put's eviction
// report.
func (c *Cache) Update(key uint64, fn func(old interface{}, present bool) (interface{}, bool)) (stored bool, evictedKey uint64, evicted bool) {
	item := trace.Item(key)
	nb, ob, slow := c.acquire(item)
	bi, s := c.find(nb, ob, item)
	var old interface{}
	if s >= 0 {
		old = c.vals[s]
	}
	var victim trace.Item
	var didEvict bool
	if v, store := fn(old, s >= 0); store {
		stored = true
		victim, didEvict = c.write(nb, bi, s, item, v)
	}
	c.release(nb, ob, slow)
	return stored, uint64(victim), didEvict
}

// GetOrLoad returns the cached value for key, or runs load exactly once (per
// miss) to produce and cache it. The load runs outside the bucket lock, so
// concurrent misses for the same key may race and both load; the last writer
// wins, which is the usual contract of lock-free-read caches.
func (c *Cache) GetOrLoad(key uint64, load func() (interface{}, error)) (interface{}, error) {
	if v, ok := c.Get(key); ok {
		return v, nil
	}
	v, err := load()
	if err != nil {
		return nil, err
	}
	c.Put(key, v)
	return v, nil
}

// Delete removes key, reporting whether it was present.
func (c *Cache) Delete(key uint64) bool {
	return c.DeleteIf(key, func(interface{}) bool { return true })
}

// DeleteIf removes key only if fn, called with the current value under the
// owning bucket's lock, returns true. The read-check-delete is one critical
// section — the conditional mirror of Update — so a concurrent write cannot
// land between fn's decision and the removal. It reports whether a delete
// happened; an absent key never invokes fn. This is the primitive behind
// tombstone reaping: "delete this tombstone unless someone revived the key
// since I scanned it" must be atomic or the reap races a reviving write.
func (c *Cache) DeleteIf(key uint64, fn func(v interface{}) bool) bool {
	item := trace.Item(key)
	nb, ob, slow := c.acquire(item)
	bi, s := c.find(nb, ob, item)
	ok := s >= 0 && fn(c.vals[s])
	if ok {
		c.remove(bi, s)
	}
	c.release(nb, ob, slow)
	return ok
}

// Rehash begins an online incremental rehash: a fresh indexing hash is
// drawn, every current resident is marked as awaiting remapping, and the
// migration proceeds under live traffic — hits move items to their new
// bucket, misses force-evict stragglers. If a previous migration is still in
// progress it is force-completed first, so at most two hash functions are
// ever live (the Section 6.1 invariant "every rehash finishes before the
// next one begins").
//
// Rehash blocks all cache operations for the duration of the marking pass
// (O(residents) under the write lock); the migration that follows is fully
// concurrent. See the package comment.
func (c *Cache) Rehash() {
	c.rehashMu.Lock()
	defer c.rehashMu.Unlock()
	p := c.pair.Load()
	if p.old != nil {
		for i := range c.buckets {
			b := &c.buckets[i]
			b.mu.Lock()
			for it := range b.old {
				c.remove(i, c.slotOf(i, it))
				c.flushEvictions.Add(1)
			}
			b.old = nil
			b.mu.Unlock()
		}
		c.pending.Store(0)
		p = &hasherPair{hasher: p.hasher}
		c.pair.Store(p)
		c.migrating.Store(false)
	}

	// Publish the new pair BEFORE the marking pass takes any bucket lock.
	// Fast-path operations re-validate the pair under their bucket lock:
	// one that validated against the old pair finished before this store
	// became visible through its bucket's mutex, so the marking pass below
	// will see (and mark) whatever it inserted; one that observes the new
	// pair falls back to the slow path and blocks on rehashMu until the
	// marking pass is done.
	c.pair.Store(&hasherPair{
		hasher: hashfn.NewRandom(c.seeds.Next(), len(c.buckets)),
		old:    p.hasher,
	})
	total := 0
	for i := range c.buckets {
		b := &c.buckets[i]
		b.mu.Lock()
		lo := i * c.alpha
		b.old = make(map[trace.Item]struct{}, b.n)
		for _, it := range c.keys[lo : lo+int(b.n)] {
			b.old[it] = struct{}{}
		}
		total += int(b.n)
		b.mu.Unlock()
	}
	c.rehashes.Add(1)
	c.sweepCursor.Store(0)
	c.pending.Store(int64(total))
	if total == 0 {
		// Nothing to migrate: the rehash completes immediately.
		c.pair.Store(&hasherPair{hasher: c.pair.Load().hasher})
		c.migrating.Store(false)
		return
	}
	c.migrating.Store(true)
}

// migrateSteps force-evicts up to migrationPerMiss not-yet-remapped items,
// sweeping buckets in order. Caller holds rehashMu.RLock and no bucket
// locks.
func (c *Cache) migrateSteps() {
	n := int64(len(c.buckets))
	for done := 0; done < c.migrationPerMiss; {
		i := c.sweepCursor.Load()
		if i >= n {
			return
		}
		b := &c.buckets[i]
		b.mu.Lock()
		evicted := false
		for it := range b.old {
			c.remove(int(i), c.slotOf(int(i), it))
			c.flushEvictions.Add(1)
			evicted = true
			break
		}
		drained := len(b.old) == 0
		b.mu.Unlock()
		if evicted {
			done++
		}
		if drained {
			c.sweepCursor.CompareAndSwap(i, i+1)
		}
	}
}

// maybeFinishMigration retires the old hash function once every resident has
// been remapped or evicted. Called after operations release rehashMu.
func (c *Cache) maybeFinishMigration() {
	if !c.migrating.Load() || c.pending.Load() != 0 {
		return
	}
	c.rehashMu.Lock()
	if p := c.pair.Load(); p.old != nil && c.pending.Load() == 0 {
		c.pair.Store(&hasherPair{hasher: p.hasher})
		c.migrating.Store(false)
	}
	c.rehashMu.Unlock()
}

// Migrating reports whether an incremental rehash is in progress.
func (c *Cache) Migrating() bool { return c.migrating.Load() }

// PendingMigration returns the number of items still awaiting remapping.
func (c *Cache) PendingMigration() int { return int(c.pending.Load()) }

// Len returns the total number of cached entries (a racy snapshot).
func (c *Cache) Len() int {
	total := 0
	for i := range c.buckets {
		b := &c.buckets[i]
		b.mu.Lock()
		total += int(b.n)
		b.mu.Unlock()
	}
	return total
}

// Keys returns a racy snapshot of all resident keys, bucket by bucket.
// Entries inserted or evicted while the snapshot is taken may or may not
// appear; no key is reported twice.
func (c *Cache) Keys() []uint64 {
	out := make([]uint64, 0, c.occupancy.Load())
	c.Entries(func(key uint64, _ interface{}) { out = append(out, key) })
	return out
}

// Entries visits every resident entry, bucket by bucket, with the owning
// bucket's lock held — a racy snapshot with the same guarantees as Keys
// (entries inserted or evicted mid-walk may or may not appear, none twice),
// but carrying the values, so callers enumerating versioned records need
// not re-read each key. visit runs under a bucket lock: it must be cheap,
// must not block, and must not call back into the cache. The walk touches
// no policy state, so an enumeration never perturbs recency.
func (c *Cache) Entries(visit func(key uint64, v interface{})) {
	for i := range c.buckets {
		b := &c.buckets[i]
		b.mu.Lock()
		for s := i * c.alpha; s < i*c.alpha+int(b.n); s++ {
			visit(uint64(c.keys[s]), c.vals[s])
		}
		b.mu.Unlock()
	}
}

// Capacity returns the total entry capacity k.
func (c *Cache) Capacity() int { return c.alpha * len(c.buckets) }

// Alpha returns the bucket size α.
func (c *Cache) Alpha() int { return c.alpha }

// NumBuckets returns the number of independent buckets (lock granularity).
func (c *Cache) NumBuckets() int { return len(c.buckets) }

// Stats returns cumulative hit/miss counters for Get calls.
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Snapshot is a point-in-time view of the cache's cumulative counters.
type Snapshot struct {
	Hits   uint64
	Misses uint64
	// Evictions counts policy evictions caused by insertions.
	Evictions uint64
	// ConflictEvictions is the subset of Evictions that happened while the
	// cache as a whole still had free slots: pure associativity conflicts,
	// the paper's Theorem 4 currency.
	ConflictEvictions uint64
	// FlushEvictions counts forced evictions performed by rehash migrations.
	FlushEvictions uint64
	// Rehashes counts completed Rehash calls.
	Rehashes uint64
	// Migrating reports an in-progress incremental rehash; Pending is the
	// number of items still awaiting remapping.
	Migrating bool
	Pending   int
	Len       int
	Capacity  int
	Alpha     int
	Buckets   int
}

// MissRatio returns Misses / (Hits + Misses), or 0 before any Get.
func (s Snapshot) MissRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// Snapshot returns the cache-wide counter snapshot.
func (c *Cache) Snapshot() Snapshot {
	return Snapshot{
		Hits:              c.hits.Load(),
		Misses:            c.misses.Load(),
		Evictions:         c.evictions.Load(),
		ConflictEvictions: c.conflictEvictions.Load(),
		FlushEvictions:    c.flushEvictions.Load(),
		Rehashes:          c.rehashes.Load(),
		Migrating:         c.migrating.Load(),
		Pending:           int(c.pending.Load()),
		Len:               c.Len(),
		Capacity:          c.Capacity(),
		Alpha:             c.alpha,
		Buckets:           len(c.buckets),
	}
}

// ShardStat is one bucket's view of the load: its Get hits and misses, the
// evictions it performed, and its current occupancy.
type ShardStat struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Len       int
}

// ShardStats returns a per-bucket stats snapshot, indexed by bucket. The
// spread across shards is the direct measure of the balls-and-bins imbalance
// the paper's threshold analysis is about.
func (c *Cache) ShardStats() []ShardStat {
	out := make([]ShardStat, len(c.buckets))
	for i := range c.buckets {
		b := &c.buckets[i]
		b.mu.Lock()
		out[i] = ShardStat{Hits: b.hits, Misses: b.misses, Evictions: b.evictions, Len: int(b.n)}
		b.mu.Unlock()
	}
	return out
}
