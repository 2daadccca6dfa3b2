package concurrent

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/policy"
)

// TestRehashPreservesReachableEntries fills a cache, rehashes, and checks
// that every entry is either still readable (with its value) or accounted
// for by the eviction counters — no entry may silently vanish.
func TestRehashPreservesReachableEntries(t *testing.T) {
	c, err := New(Config{Capacity: 256, Alpha: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200 // below capacity, but individual buckets may still overflow
	inserted := 0
	for i := uint64(0); i < n; i++ {
		c.Put(i, i*3)
		inserted++
	}
	preSnap := c.Snapshot()
	resident := preSnap.Len

	c.Rehash()
	if !c.Migrating() && c.PendingMigration() != 0 {
		t.Fatalf("pending %d without migration", c.PendingMigration())
	}

	// Touch every key: hits migrate items, misses force-evict stragglers.
	found := 0
	for i := uint64(0); i < n; i++ {
		if v, ok := c.Get(i); ok {
			if v != i*3 {
				t.Fatalf("Get(%d) = %v, want %d", i, v, i*3)
			}
			found++
		}
	}
	snap := c.Snapshot()
	// Every resident at rehash time is either found, migration-evicted
	// (FlushEvictions), or displaced by a migrating insert (Evictions).
	lost := resident - found
	evicted := int(snap.FlushEvictions-preSnap.FlushEvictions) + int(snap.Evictions-preSnap.Evictions)
	if lost > evicted {
		t.Fatalf("%d entries lost but only %d evictions recorded", lost, evicted)
	}
	if snap.Rehashes != 1 {
		t.Fatalf("rehashes = %d, want 1", snap.Rehashes)
	}
}

// TestRehashDrainsViaMisses checks that misses alone finish the migration:
// the paper's schedule forces one eviction per miss, so after enough misses
// on disjoint keys the old generation must be gone.
func TestRehashDrainsViaMisses(t *testing.T) {
	c, err := New(Config{Capacity: 64, Alpha: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		c.Put(i, i)
	}
	c.Rehash()
	if !c.Migrating() {
		t.Fatal("migration should be in progress")
	}
	start := c.PendingMigration()
	if start == 0 {
		t.Fatal("nothing pending after rehash of a full cache")
	}
	// Misses on never-inserted keys: each must retire ≥1 pending item.
	for i := uint64(0); i < uint64(start); i++ {
		if _, ok := c.Get(1_000_000 + i); ok {
			t.Fatalf("unexpected hit on fresh key %d", 1_000_000+i)
		}
	}
	if c.Migrating() || c.PendingMigration() != 0 {
		t.Fatalf("migration not drained: migrating=%v pending=%d", c.Migrating(), c.PendingMigration())
	}
	snap := c.Snapshot()
	if snap.FlushEvictions == 0 {
		t.Fatal("no flush evictions recorded")
	}
	if snap.Len > snap.Capacity {
		t.Fatalf("Len %d > capacity %d", snap.Len, snap.Capacity)
	}
}

// TestRehashEveryMisses checks the automatic Section 6 schedule. The
// trigger fires asynchronously, so the assertion polls briefly.
func TestRehashEveryMisses(t *testing.T) {
	c, err := New(Config{Capacity: 32, Alpha: 4, Seed: 3, RehashEveryMisses: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 350; i++ {
		c.Get(i) // every Get misses: fresh keys, nothing inserted
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Snapshot().Rehashes != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("rehashes = %d after 350 misses with period 100, want 3", c.Snapshot().Rehashes)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBackToBackRehash checks the "at most two live hash functions"
// invariant: a second Rehash during a migration force-completes the first.
func TestBackToBackRehash(t *testing.T) {
	c, err := New(Config{Capacity: 128, Alpha: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 128; i++ {
		c.Put(i, i)
	}
	c.Rehash()
	p1 := c.PendingMigration()
	c.Rehash() // force-completes the first migration
	snap := c.Snapshot()
	if snap.Rehashes != 2 {
		t.Fatalf("rehashes = %d, want 2", snap.Rehashes)
	}
	if int(snap.FlushEvictions) < p1 {
		t.Fatalf("flush evictions %d < first migration's pending %d", snap.FlushEvictions, p1)
	}
	if snap.Len > snap.Capacity {
		t.Fatalf("Len %d > capacity %d", snap.Len, snap.Capacity)
	}
}

// TestCounterConservation is the satellite stress test: under full parallel
// contention (with -race), hits + misses must equal the total number of Get
// calls, and occupancy invariants must hold — evidence that the per-bucket
// counters lose nothing.
func TestCounterConservation(t *testing.T) {
	c, err := New(Config{Capacity: 512, Alpha: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const getsPerG = 20_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < getsPerG; i++ {
				key := uint64((g*7 + i) % 1024)
				if _, ok := c.Get(key); !ok {
					c.Put(key, key)
				}
			}
		}(g)
	}
	wg.Wait()

	hits, misses := c.Stats()
	total := uint64(goroutines * getsPerG)
	if hits+misses != total {
		t.Fatalf("hits %d + misses %d = %d, want %d", hits, misses, hits+misses, total)
	}
	// Per-shard Get counters must add up to the same totals.
	var shardHits, shardMisses uint64
	for _, sh := range c.ShardStats() {
		shardHits += sh.Hits
		shardMisses += sh.Misses
	}
	if shardHits != hits || shardMisses != misses {
		t.Fatalf("shard sums %d/%d != global %d/%d", shardHits, shardMisses, hits, misses)
	}
	if c.Len() > c.Capacity() {
		t.Fatalf("Len %d > capacity %d", c.Len(), c.Capacity())
	}
}

// TestConcurrentRehashStress rehashes repeatedly while readers and writers
// hammer the cache; run with -race. Invariants: counters conserve, the
// migration always drains, and occupancy never exceeds capacity. It runs
// once per bucket layout: LRU in slot order, LRU on the indexed sets'
// recency lists, and clock beside scanned and indexed slots.
func TestConcurrentRehashStress(t *testing.T) {
	for _, tc := range []struct {
		kind  policy.Kind
		alpha int
	}{{policy.LRUKind, 8}, {policy.LRUKind, 128}, {policy.ClockKind, 8}, {policy.ClockKind, 128}} {
		t.Run(fmt.Sprintf("%v/alpha=%d", tc.kind, tc.alpha), func(t *testing.T) {
			testConcurrentRehashStress(t, Config{
				Capacity: 512, Alpha: tc.alpha, Seed: 23, MigrationPerMiss: 2,
				Policy: policy.NewFactory(tc.kind, 23),
			})
		})
	}
}

func testConcurrentRehashStress(t *testing.T, cfg Config) {
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 6
	const opsPerG = 10_000
	var wg sync.WaitGroup
	gets := make([]uint64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPerG; i++ {
				key := uint64((g*opsPerG + i) % 2048)
				switch i % 4 {
				case 0, 1:
					gets[g]++
					if v, ok := c.Get(key); ok && v != key {
						t.Errorf("Get(%d) = %v", key, v)
						return
					}
				case 2:
					c.Put(key, key)
				case 3:
					c.Delete(key)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			c.Rehash()
		}
	}()
	wg.Wait()
	<-done

	// Drain any in-flight migration with misses on fresh keys.
	for i := uint64(0); c.Migrating(); i++ {
		if i > 10_000 {
			t.Fatalf("migration failed to drain: pending %d", c.PendingMigration())
		}
		c.Get(uint64(1)<<40 + i)
	}

	hits, misses := c.Stats()
	var wantGets uint64
	for _, g := range gets {
		wantGets += g
	}
	// The drain loop above also issued Gets; count them via totals instead.
	if hits+misses < wantGets {
		t.Fatalf("hits %d + misses %d < issued gets %d", hits, misses, wantGets)
	}
	snap := c.Snapshot()
	if snap.Len > snap.Capacity {
		t.Fatalf("Len %d > capacity %d", snap.Len, snap.Capacity)
	}
	if snap.Pending != 0 {
		t.Fatalf("pending %d after drain", snap.Pending)
	}
	if snap.Rehashes != 50 {
		t.Fatalf("rehashes = %d, want 50", snap.Rehashes)
	}
	// Occupancy bookkeeping must agree with a fresh bucket-by-bucket count.
	if got := c.Len(); got != int(c.occupancy.Load()) {
		t.Fatalf("occupancy counter %d != recount %d", c.occupancy.Load(), got)
	}
	// Every resident is reachable under the final hash with its own value.
	n := 0
	c.Entries(func(key uint64, v interface{}) {
		n++
		if v != key {
			t.Errorf("entry %d holds %v", key, v)
		}
	})
	for _, key := range c.Keys() {
		if v, ok := c.Get(key); !ok || v != key {
			t.Fatalf("resident %d: Get = %v, %v", key, v, ok)
		}
	}
	if n != c.Len() {
		t.Fatalf("%d entries, Len %d", n, c.Len())
	}
}

// TestRehashWithNonLRUPolicy exercises migration under a different bucket
// policy (clock), covering the Policy-factory path.
func TestRehashWithNonLRUPolicy(t *testing.T) {
	c, err := New(Config{
		Capacity: 64, Alpha: 4, Seed: 9,
		Policy: policy.NewFactory(policy.ClockKind, 9),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		c.Put(i, i)
	}
	c.Rehash()
	for i := uint64(0); i < 64; i++ {
		if v, ok := c.Get(i); ok && v != i {
			t.Fatalf("Get(%d) = %v", i, v)
		}
	}
	for i := uint64(0); c.Migrating(); i++ {
		c.Get(1_000_000 + i)
	}
	if c.Len() > c.Capacity() {
		t.Fatalf("Len %d > capacity", c.Len())
	}
}
