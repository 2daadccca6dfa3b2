// Package policy implements the replacement policies studied by the paper:
// LRU, LRU-K, LFU, FIFO, clock (Section 3), the reuse-distance algorithm R
// (Proposition 6), flush-when-full (the non-lazy, non-conservative example),
// and a seeded random policy used as an ablation baseline.
//
// A Policy manages the contents of one fixed-capacity cache. The same
// implementation serves as a fully associative cache of size k and as a
// single bucket (set) of size α inside a set-associative cache; the paper's
// α-way set-associative A runs one instance of A_α per bucket.
//
// All policies here except FlushWhenFull are lazy in the paper's sense: they
// fetch an item only on a miss, evict at most one item per miss, and evict
// only when the cache is full.
package policy

import (
	"fmt"

	"repro/internal/trace"
)

// Policy is the contract every replacement policy implements.
//
// Request serves one request. If the request hits, it returns hit=true and
// no eviction. If it misses, the item is fetched into the cache; when the
// cache was full, exactly one victim is evicted and returned (lazy policies).
// FlushWhenFull is the exception: it may evict the whole cache, in which case
// it additionally implements BatchEvictions.
type Policy interface {
	Request(x trace.Item) (hit bool, evicted trace.Item, didEvict bool)

	// Contains reports whether x is currently cached, without touching any
	// recency/frequency state.
	Contains(x trace.Item) bool

	// Len returns the number of currently cached items.
	Len() int

	// Capacity returns the fixed capacity this policy was built with.
	Capacity() int

	// Items returns a snapshot of the cached items in unspecified order.
	Items() []trace.Item

	// Delete removes x from the cache without counting it as an eviction,
	// reporting whether it was present. Incremental flushing uses this to
	// migrate items between hash functions.
	Delete(x trace.Item) bool

	// Reset empties the cache and clears all access history.
	Reset()
}

// BatchEvictions is implemented by non-lazy policies whose Request may evict
// more than one item (flush-when-full). TakeEvictions returns and clears the
// items evicted beyond the single one reported by the last Request.
type BatchEvictions interface {
	TakeEvictions() []trace.Item
}

// Kind names a policy family.
type Kind int

// The supported policy families.
const (
	LRUKind Kind = iota
	FIFOKind
	ClockKind
	LFUKind
	LRU2Kind
	LRU3Kind
	ReuseDistKind
	RandomKind
	FlushWhenFullKind
	MRUKind
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case LRUKind:
		return "lru"
	case FIFOKind:
		return "fifo"
	case ClockKind:
		return "clock"
	case LFUKind:
		return "lfu"
	case LRU2Kind:
		return "lru2"
	case LRU3Kind:
		return "lru3"
	case ReuseDistKind:
		return "reusedist"
	case RandomKind:
		return "random"
	case FlushWhenFullKind:
		return "flushwhenfull"
	case MRUKind:
		return "mru"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a name accepted on CLI flags into a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "lru":
		return LRUKind, nil
	case "fifo":
		return FIFOKind, nil
	case "clock":
		return ClockKind, nil
	case "lfu":
		return LFUKind, nil
	case "lru2", "lru-2":
		return LRU2Kind, nil
	case "lru3", "lru-3":
		return LRU3Kind, nil
	case "reusedist", "r":
		return ReuseDistKind, nil
	case "random":
		return RandomKind, nil
	case "flushwhenfull", "fwf":
		return FlushWhenFullKind, nil
	case "mru":
		return MRUKind, nil
	default:
		return 0, fmt.Errorf("policy: unknown kind %q", s)
	}
}

// Lazy reports whether the policy family is lazy in the paper's sense.
func (k Kind) Lazy() bool { return k != FlushWhenFullKind }

// Conservative reports whether the policy family is conservative (incurs at
// most k misses on any window with at most k distinct items). LRU, FIFO and
// clock are conservative; flush-when-full is not (Section 3).
//
// Reproduction note: the paper also lists LFU as conservative, but that
// claim is false — frequency counts pin old hot items in the cache, so two
// fresh items can thrash each other indefinitely. A concrete witness with
// k = 2 is σ = A A B C B C: after A's count reaches 2, B and C (count ≤ 1)
// evict each other, giving 4 misses on the window B C B C, which has only 2
// distinct items. internal/stability's randomized search finds such
// witnesses immediately, so we classify LFU as non-conservative; experiment
// E10 (internal/experiments/e10_e12_stability.go) reports the witness.
// LRU-K (K ≥ 2), reuse-distance and random are likewise not conservative.
func (k Kind) Conservative() bool {
	switch k {
	case LRUKind, FIFOKind, ClockKind:
		return true
	default:
		return false
	}
}

// Stable reports the paper's classification of the family: LRU, LRU-K and
// LFU are stable (Lemma 1); FIFO and clock are not (Corollary 2);
// reuse-distance is stack but not stable (Proposition 6). MRU is likewise
// stack but not stable (our classification, confirmed by the randomized
// search — its order family moves the accessed item to the ⪯-maximum, so
// it is not monotone). Random and flush-when-full are neither.
func (k Kind) Stable() bool {
	switch k {
	case LRUKind, LRU2Kind, LRU3Kind, LFUKind:
		return true
	default:
		return false
	}
}

// Stack reports whether the family is a stack algorithm (Section 7.1).
// All the order-family policies qualify via Theorem 6: LRU, LRU-K, LFU,
// reuse-distance and MRU.
func (k Kind) Stack() bool {
	switch k {
	case LRUKind, LRU2Kind, LRU3Kind, LFUKind, ReuseDistKind, MRUKind:
		return true
	default:
		return false
	}
}

// Factory builds a fresh policy instance of a given capacity. Factories are
// how the cache simulators stamp out one policy per bucket.
type Factory func(capacity int) Policy

// NewFactory returns a Factory for the given kind. The seed is only used by
// RandomKind; deterministic policies ignore it.
func NewFactory(kind Kind, seed uint64) Factory {
	switch kind {
	case LRUKind:
		return func(c int) Policy { return NewLRU(c) }
	case FIFOKind:
		return func(c int) Policy { return NewFIFO(c) }
	case ClockKind:
		return func(c int) Policy { return NewClock(c) }
	case LFUKind:
		return func(c int) Policy { return NewLFU(c) }
	case LRU2Kind:
		return func(c int) Policy { return NewLRUK(c, 2) }
	case LRU3Kind:
		return func(c int) Policy { return NewLRUK(c, 3) }
	case ReuseDistKind:
		return func(c int) Policy { return NewReuseDist(c) }
	case RandomKind:
		return func(c int) Policy { return NewRandom(c, seed) }
	case FlushWhenFullKind:
		return func(c int) Policy { return NewFlushWhenFull(c) }
	case MRUKind:
		return func(c int) Policy { return NewMRU(c) }
	default:
		panic(fmt.Sprintf("policy: unknown kind %v", kind))
	}
}

// AllKinds lists every supported policy family, in a stable order.
func AllKinds() []Kind {
	return []Kind{
		LRUKind, FIFOKind, ClockKind, LFUKind, LRU2Kind, LRU3Kind,
		ReuseDistKind, RandomKind, FlushWhenFullKind, MRUKind,
	}
}

func validateCapacity(c int) {
	if c <= 0 {
		panic(fmt.Sprintf("policy: capacity %d must be positive", c))
	}
}
