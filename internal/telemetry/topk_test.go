package telemetry

import (
	"math/rand"
	"sync"
	"testing"
)

// zipfStream draws n keys from a zipf distribution over [0, universe) and
// feeds them both to the sketch (scrambled, as the server does) and to an
// exact counter, returning the exact counts keyed by scrambled key.
func zipfStream(t *TopK, n, universe int, seed int64) map[uint64]uint64 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1, uint64(universe-1))
	exact := make(map[uint64]uint64)
	for i := 0; i < n; i++ {
		k := HashKey(z.Uint64())
		exact[k]++
		if t != nil {
			t.Record(k)
		}
	}
	return exact
}

// TestTopKBoundedError is the satellite-required property test: on zipf
// input every tracked key obeys the space-saving bounds
// (Count−Err ≤ true ≤ Count), the error never exceeds the per-stripe N/K
// guarantee, and the genuinely hottest key is both tracked and ranked
// first.
func TestTopKBoundedError(t *testing.T) {
	const n, universe = 200000, 100000
	sk := NewTopK(256)
	exact := zipfStream(sk, n, universe, 1)

	snap := sk.Snapshot()
	if len(snap) == 0 {
		t.Fatal("empty snapshot after 200k records")
	}
	for _, e := range snap {
		true_ := exact[e.Key]
		if e.Count < true_ {
			t.Errorf("key %x: Count %d undercounts true %d", e.Key, e.Count, true_)
		}
		if e.Count-e.Err > true_ {
			t.Errorf("key %x: Count−Err = %d exceeds true %d (bound violated)", e.Key, e.Count-e.Err, true_)
		}
	}
	// Per-stripe guarantee: Err ≤ N_stripe/K_stripe ≤ N/(K/stripes) — use
	// the loose whole-stream bound, which must still hold.
	perStripeCap := sk.Cap() / topKStripes
	for _, e := range snap {
		if e.Err > uint64(n/perStripeCap) {
			t.Errorf("key %x: Err %d exceeds N/K bound %d", e.Key, e.Err, n/perStripeCap)
		}
	}
	// The true hottest key must be tracked and ranked first: its count
	// under zipf(1.2) is far above any bound slack.
	var hotKey, hotCnt uint64
	for k, c := range exact {
		if c > hotCnt {
			hotKey, hotCnt = k, c
		}
	}
	if snap[0].Key != hotKey {
		t.Errorf("hottest key %x (true count %d) not ranked first; got %x (Count %d)",
			hotKey, hotCnt, snap[0].Key, snap[0].Count)
	}
}

// TestTopKMergeAssociative pins the aggregate property the cluster relies
// on: merging per-node snapshots is associative and commutative, so the
// router may fold nodes in any order.
func TestTopKMergeAssociative(t *testing.T) {
	sks := make([]TopKSnapshot, 3)
	for i := range sks {
		sk := NewTopK(64)
		zipfStream(sk, 30000, 5000, int64(10+i))
		sks[i] = sk.Snapshot()
	}
	a, b, c := sks[0], sks[1], sks[2]
	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	if len(left) != len(right) {
		t.Fatalf("associativity: %d vs %d entries", len(left), len(right))
	}
	for i := range left {
		if left[i] != right[i] {
			t.Fatalf("associativity broken at %d: %+v vs %+v", i, left[i], right[i])
		}
	}
	ab, ba := a.Merge(b), b.Merge(a)
	for i := range ab {
		if ab[i] != ba[i] {
			t.Fatalf("commutativity broken at %d: %+v vs %+v", i, ab[i], ba[i])
		}
	}
	// Merged counts must equal the sum of the parts for shared keys.
	want := make(map[uint64]uint64)
	for _, s := range sks {
		for _, e := range s {
			want[e.Key] += e.Count
		}
	}
	for _, e := range left {
		if e.Count != want[e.Key] {
			t.Fatalf("merged count for %x = %d, want %d", e.Key, e.Count, want[e.Key])
		}
	}
}

// TestTopKEviction forces heavy replacement through a tiny sketch and
// checks the index stays consistent (every tracked key findable, ranking
// sane) after the tombstone-rebuild cycles that churn provokes.
func TestTopKEviction(t *testing.T) {
	sk := NewTopK(16)
	rng := rand.New(rand.NewSource(7))
	const hot = uint64(0xdeadbeef)
	for i := 0; i < 100000; i++ {
		if i%4 == 0 {
			sk.Record(hot)
		} else {
			sk.Record(rng.Uint64()) // one-off churn keys
		}
	}
	snap := sk.Snapshot()
	if got := sk.Cap(); len(snap) > got {
		t.Fatalf("snapshot has %d entries, capacity %d", len(snap), got)
	}
	if snap[0].Key != hot {
		t.Fatalf("hot key not ranked first after churn: got %x count=%d", snap[0].Key, snap[0].Count)
	}
	if snap[0].Count < 25000 {
		t.Fatalf("hot key count %d, want ≥ its 25000 true occurrences", snap[0].Count)
	}
}

// TestTopKArgMinIsMinimum checks every space-saving eviction of a seeded
// zipf stream into a full sketch against a brute-force scan of the
// stripe: the victim argMin picks must hold the stripe's minimum count
// (the resumed scan may pick any slot at the minimum, but never one
// above it), and the cached bound must never exceed the true minimum.
func TestTopKArgMinIsMinimum(t *testing.T) {
	sk := NewTopK(64)
	rng := rand.New(rand.NewSource(42))
	z := rand.NewZipf(rng, 1.1, 1, 1<<16)
	evictions := 0
	for i := 0; i < 200000; i++ {
		key := HashKey(z.Uint64())
		h := HashKey(key)
		s := &sk.stripes[h>>(64-3)]
		if s.used < len(s.keys) || s.find(key, uint32(h)) >= 0 {
			sk.Record(key)
			continue
		}
		least := s.counts[0]
		for _, c := range s.counts[1:] {
			if c < least {
				least = c
			}
		}
		if s.minCnt > least {
			t.Fatalf("eviction %d: cached bound %d exceeds the stripe minimum %d", evictions, s.minCnt, least)
		}
		sk.Record(key)
		slot := s.find(key, uint32(h))
		if slot < 0 {
			t.Fatalf("eviction %d: recorded key not tracked", evictions)
		}
		// The newcomer inherits the victim's count as its error bound.
		if s.errs[slot] != least {
			t.Fatalf("eviction %d: victim held count %d, stripe minimum is %d", evictions, s.errs[slot], least)
		}
		evictions++
	}
	if evictions < 10000 {
		t.Fatalf("only %d evictions; the stream must churn a full sketch", evictions)
	}
}

// TestTopKConcurrent is the -race exercise across stripes.
func TestTopKConcurrent(t *testing.T) {
	sk := NewTopK(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20000; i++ {
				sk.Record(rng.Uint64() % 1000)
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			sk.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	var total uint64
	for _, e := range sk.Snapshot() {
		total += e.Count
	}
	if total == 0 {
		t.Fatal("concurrent records all lost")
	}
}

// TestTopKZeroAllocs pins the sketch's hot path: recording — tracked key
// or eviction — must not allocate (the tracing-off GET path feeds every
// request through it).
func TestTopKZeroAllocs(t *testing.T) {
	sk := NewTopK(64)
	var i uint64
	if n := testing.AllocsPerRun(5000, func() { i++; sk.Record(i) }); n != 0 {
		t.Fatalf("TopK.Record (evicting) allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(5000, func() { sk.Record(42) }); n != 0 {
		t.Fatalf("TopK.Record (tracked) allocates %.1f/op, want 0", n)
	}
}
