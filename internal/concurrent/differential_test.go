package concurrent

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/hashfn"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestMatchesSetAssoc replays one seeded zipf trace through Cache (Get,
// then Put on a miss) and through core.SetAssoc with the same seed. Both
// index with hashfn.NewRandom(hashfn.NewSeedSequence(seed).Next(), k/α)
// and run the same policy per set, so every hit, miss and victim must
// match exactly. LRU at α = 8 exercises the in-slot recency order; clock
// exercises the policy.Policy path; LRU past scanMax exercises the indexed
// sets.
func TestMatchesSetAssoc(t *testing.T) {
	const (
		k    = 512
		seed = 11
		n    = 60000
	)
	seq := workload.Zipf{Universe: 4 * k, S: 0.99, Shuffle: true}.Generate(n, 3)
	for _, tc := range []struct {
		kind  policy.Kind
		alpha int
	}{{policy.LRUKind, 8}, {policy.ClockKind, 8}, {policy.LRUKind, 128}} {
		kind, alpha := tc.kind, tc.alpha
		t.Run(fmt.Sprintf("%v/alpha=%d", kind, alpha), func(t *testing.T) {
			factory := policy.NewFactory(kind, 0)
			c, err := New(Config{Capacity: k, Alpha: alpha, Seed: seed, Policy: factory})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.NewSetAssoc(core.SetAssocConfig{Capacity: k, Alpha: alpha, Seed: seed, Factory: factory})
			if err != nil {
				t.Fatal(err)
			}
			hits, evictions := 0, 0
			for i, x := range seq {
				wantHit, wantVictim, wantEvict := ref.AccessDetail(x)
				v, hit := c.Get(uint64(x))
				var victim uint64
				var evict bool
				if !hit {
					victim, evict = c.Put(uint64(x), x)
				} else if v != x {
					t.Fatalf("request %d: Get(%d) = %v", i, x, v)
				}
				if hit != wantHit || evict != wantEvict || (evict && trace.Item(victim) != wantVictim) {
					t.Fatalf("request %d (%d): cache hit=%v evict=%v/%d, SetAssoc hit=%v evict=%v/%d",
						i, x, hit, evict, victim, wantHit, wantEvict, wantVictim)
				}
				if hit {
					hits++
				}
				if evict {
					evictions++
				}
			}
			// The trace must exercise both sides of the comparison.
			if hits == 0 || evictions == 0 {
				t.Fatalf("degenerate trace: %d hits, %d evictions", hits, evictions)
			}
			// Both must end holding the same residents.
			got, want := c.Keys(), ref.Items()
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(got) != len(want) {
				t.Fatalf("%d residents, SetAssoc holds %d", len(got), len(want))
			}
			for i := range want {
				if trace.Item(got[i]) != want[i] {
					t.Fatalf("residents differ at %d: %d vs SetAssoc %d", i, got[i], want[i])
				}
			}
		})
	}
}

// TestBucketIsOneCacheLine pins the bucket header at one 64-byte line, so
// neighbouring buckets' locks never share a line.
func TestBucketIsOneCacheLine(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is pinned on 64-bit platforms only")
	}
	if got := unsafe.Sizeof(bucket{}); got != 64 {
		t.Fatalf("sizeof(bucket) = %d, want 64", got)
	}
}

// refCache is the reference α-way cache: one policy instance per set and
// a map of values, with no slots at all.
type refCache struct {
	h    *hashfn.Random
	pols []policy.Policy
	vals map[trace.Item]interface{}
}

func (r *refCache) get(x trace.Item) (interface{}, bool) {
	p := r.pols[r.h.Bucket(x)]
	if !p.Contains(x) {
		return nil, false
	}
	p.Request(x)
	return r.vals[x], true
}

func (r *refCache) put(x trace.Item, v interface{}) (trace.Item, bool) {
	p := r.pols[r.h.Bucket(x)]
	_, victim, evicted := p.Request(x)
	if evicted {
		delete(r.vals, victim)
	}
	if be, ok := p.(policy.BatchEvictions); ok {
		for _, ev := range be.TakeEvictions() {
			delete(r.vals, ev)
		}
	}
	r.vals[x] = v
	return victim, evicted
}

func (r *refCache) del(x trace.Item) bool {
	if !r.pols[r.h.Bucket(x)].Delete(x) {
		return false
	}
	delete(r.vals, x)
	return true
}

// TestMatchesReferenceSets drives every bucket layout — LRU in slot order,
// LRU on the indexed sets' recency lists, and policies beside the slots,
// scanned and indexed — with a seeded mix of Get, Put, Update, Delete and
// DeleteIf, and requires every answer to match refCache's.
func TestMatchesReferenceSets(t *testing.T) {
	const k, universe, ops = 512, 1536, 40000
	for _, tc := range []struct {
		kind  policy.Kind
		alpha int
	}{
		{policy.LRUKind, 8}, {policy.LRUKind, 128}, {policy.LRUKind, k},
		{policy.ClockKind, 8}, {policy.LFUKind, 128}, {policy.FlushWhenFullKind, 8},
	} {
		kind, alpha := tc.kind, tc.alpha
		t.Run(fmt.Sprintf("%v/alpha=%d", kind, alpha), func(t *testing.T) {
			factory := policy.NewFactory(kind, 0)
			c, err := New(Config{Capacity: k, Alpha: alpha, Seed: 5, Policy: factory})
			if err != nil {
				t.Fatal(err)
			}
			ref := &refCache{h: c.pair.Load().hasher, vals: map[trace.Item]interface{}{}}
			for range c.NumBuckets() {
				ref.pols = append(ref.pols, factory(alpha))
			}
			rng := rand.New(rand.NewPCG(9, uint64(alpha)))
			for i := range ops {
				x := trace.Item(rng.IntN(universe))
				switch op := rng.IntN(10); {
				case op < 5:
					v, ok := c.Get(uint64(x))
					wv, wok := ref.get(x)
					if ok != wok || v != wv {
						t.Fatalf("op %d Get(%d) = %v/%v, want %v/%v", i, x, v, ok, wv, wok)
					}
					if ok {
						continue
					}
					fallthrough
				case op < 7:
					victim, evicted := c.Put(uint64(x), i)
					wvictim, wevicted := ref.put(x, i)
					// Flush-when-full reports one of its flushed items, in map
					// order, so only its eviction flag is comparable.
					sameVictim := trace.Item(victim) == wvictim || kind == policy.FlushWhenFullKind
					if evicted != wevicted || evicted && !sameVictim {
						t.Fatalf("op %d Put(%d) evicted %v/%d, want %v/%d", i, x, evicted, victim, wevicted, wvictim)
					}
				case op < 8:
					inc := func(old interface{}, present bool) (interface{}, bool) {
						if !present {
							return nil, false
						}
						return old.(int) + 1, true
					}
					c.Update(uint64(x), inc)
					if old, ok := ref.vals[x]; ok {
						ref.put(x, old.(int)+1)
					}
				case op < 9:
					if got, want := c.Delete(uint64(x)), ref.del(x); got != want {
						t.Fatalf("op %d Delete(%d) = %v, want %v", i, x, got, want)
					}
				default:
					even := func(v interface{}) bool { return v.(int)%2 == 0 }
					want := false
					if v, ok := ref.vals[x]; ok && even(v) {
						want = ref.del(x)
					}
					if got := c.DeleteIf(uint64(x), even); got != want {
						t.Fatalf("op %d DeleteIf(%d) = %v, want %v", i, x, got, want)
					}
				}
			}
			n := 0
			c.Entries(func(key uint64, v interface{}) {
				n++
				if want, ok := ref.vals[trace.Item(key)]; !ok || v != want {
					t.Fatalf("entry %d = %v, reference holds %v/%v", key, v, want, ok)
				}
			})
			if n != len(ref.vals) || c.Len() != n {
				t.Fatalf("%d entries (Len %d), reference holds %d", n, c.Len(), len(ref.vals))
			}
		})
	}
}
