package assoccache

// The benchmark harness has two layers:
//
//   - BenchmarkE* — one benchmark per reproduction experiment (E1–E19; the
//     id-to-claim index is the table in cmd/assocbench/main.go). Each iteration executes the whole
//     experiment at Quick scale and reports its headline metric, so
//     `go test -bench=E -benchmem` regenerates every "table" of the paper.
//   - Micro-benchmarks for the hot paths of the library itself (policy
//     Request, set-associative Access with and without rehashing, hashing,
//     OPT, the concurrent cache).
//
// cmd/assocbench prints the same experiments as full-scale human-readable
// tables.

import (
	"sync/atomic"
	"testing"

	"repro/internal/ballsbins"
	"repro/internal/companion"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hashfn"
	"repro/internal/hwcache"
	"repro/internal/mirror"
	"repro/internal/opt"
	"repro/internal/policy"
	"repro/internal/skewed"
	"repro/internal/stackdist"
	"repro/internal/trace"
	"repro/internal/workload"
)

func benchCfg() experiments.Config { return experiments.QuickConfig() }

func BenchmarkE1Threshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E1Threshold(benchCfg())
		b.ReportMetric(r.Rows[0].ExcessFactor.Mean, "excess@α=1")
		b.ReportMetric(r.Rows[len(r.Rows)-1].ExcessFactor.Mean, "excess@α=max")
	}
}

func BenchmarkE2Competitive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E2Competitive(benchCfg())
		b.ReportMetric(r.Rows[0].CostRatio.Mean, "cost-ratio")
	}
}

func BenchmarkE3MaxLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E3MaxLoad(benchCfg())
		b.ReportMetric(r.Rows[0].Empirical, "Pr[max>α]")
	}
}

func BenchmarkE4Saturated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E4Saturated(benchCfg())
		b.ReportMetric(r.Rows[0].SuccessFrac, "Pr[sat>f/8]")
	}
}

func BenchmarkE5Adversary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E5Adversary(benchCfg())
		b.ReportMetric(r.Rows[0].Ratio.Mean, "ratio@lru-α2")
	}
}

func BenchmarkE6Regimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E6Regimes(benchCfg())
		b.ReportMetric(r.Rows[1].Ratio.Mean, "ratio@sublog")
	}
}

func BenchmarkE7FullFlush(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E7E8Rehash(benchCfg())
		if v, ok := r.RatioFor(core.RehashFullFlush, r.MaxReps()); ok {
			b.ReportMetric(v, "ff-ratio")
		}
		if v, ok := r.RatioFor(core.RehashNone, r.MaxReps()); ok {
			b.ReportMetric(v, "none-ratio")
		}
	}
}

func BenchmarkE8Incremental(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E7E8Rehash(benchCfg())
		if v, ok := r.RatioFor(core.RehashIncremental, r.MaxReps()); ok {
			b.ReportMetric(v, "if-ratio")
		}
	}
}

func BenchmarkE9VsOPT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E9VsOPT(benchCfg())
		b.ReportMetric(r.Rows[0].Ratio.Mean, "ratio-vs-opt")
	}
}

func BenchmarkE10Stability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E10Stability(benchCfg())
		consistent := 0.0
		if r.AllConsistent() {
			consistent = 1
		}
		b.ReportMetric(consistent, "consistent")
	}
}

func BenchmarkE11ReuseDist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E11ReuseDist(benchCfg())
		ok := 0.0
		if r.PaperReplayError == nil && r.StackWitness == nil {
			ok = 1
		}
		b.ReportMetric(ok, "prop6-holds")
	}
}

func BenchmarkE12Belady(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E12Belady(benchCfg())
		b.ReportMetric(float64(r.ClassicFIFOCost4-r.ClassicFIFOCost3), "anomaly-gap")
	}
}

func BenchmarkE13AccessRehash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E13AccessRehash(benchCfg())
		maxReps := 0
		for _, row := range r.Rows {
			if row.Reps > maxReps {
				maxReps = row.Reps
			}
		}
		if v, ok := r.RatioFor("every 2k accesses (broken)", maxReps); ok {
			b.ReportMetric(v, "broken-ratio")
		}
	}
}

func BenchmarkE14LRU2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E14LRU2(benchCfg())
		if lru, ok := r.MissRatioFor(policy.LRUKind); ok {
			if lru2, ok2 := r.MissRatioFor(policy.LRU2Kind); ok2 {
				b.ReportMetric(lru/lru2, "lru/lru2")
			}
		}
	}
}

// --- library micro-benchmarks ---

func zipfTrace(n, universe int) trace.Sequence {
	return workload.Zipf{Universe: universe, S: 1.0, Shuffle: true}.Generate(n, 42)
}

func benchPolicy(b *testing.B, kind policy.Kind) {
	seq := zipfTrace(1<<16, 1<<14)
	p := policy.NewFactory(kind, 1)(1 << 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Request(seq[i%len(seq)])
	}
}

func BenchmarkPolicyLRU(b *testing.B)       { benchPolicy(b, policy.LRUKind) }
func BenchmarkPolicyFIFO(b *testing.B)      { benchPolicy(b, policy.FIFOKind) }
func BenchmarkPolicyClock(b *testing.B)     { benchPolicy(b, policy.ClockKind) }
func BenchmarkPolicyLFU(b *testing.B)       { benchPolicy(b, policy.LFUKind) }
func BenchmarkPolicyLRU2(b *testing.B)      { benchPolicy(b, policy.LRU2Kind) }
func BenchmarkPolicyReuseDist(b *testing.B) { benchPolicy(b, policy.ReuseDistKind) }

func benchSetAssoc(b *testing.B, alpha int, rehash core.RehashConfig) {
	seq := zipfTrace(1<<16, 1<<14)
	sa := core.MustNewSetAssoc(core.SetAssocConfig{
		Capacity: 1 << 12, Alpha: alpha,
		Factory: policy.NewFactory(policy.LRUKind, 0),
		Seed:    1, Rehash: rehash,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sa.Access(seq[i%len(seq)])
	}
}

func BenchmarkSetAssocAlpha1(b *testing.B)  { benchSetAssoc(b, 1, core.RehashConfig{}) }
func BenchmarkSetAssocAlpha8(b *testing.B)  { benchSetAssoc(b, 8, core.RehashConfig{}) }
func BenchmarkSetAssocAlpha64(b *testing.B) { benchSetAssoc(b, 64, core.RehashConfig{}) }
func BenchmarkSetAssocFullFlush(b *testing.B) {
	benchSetAssoc(b, 64, core.RehashConfig{Mode: core.RehashFullFlush, EveryMisses: 1 << 14})
}
func BenchmarkSetAssocIncremental(b *testing.B) {
	benchSetAssoc(b, 64, core.RehashConfig{Mode: core.RehashIncremental, EveryMisses: 1 << 14})
}

func BenchmarkFullAssocLRU(b *testing.B) {
	seq := zipfTrace(1<<16, 1<<14)
	fa := core.NewFullAssoc(policy.NewFactory(policy.LRUKind, 0), 1<<12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fa.Access(seq[i%len(seq)])
	}
}

func BenchmarkBeladyOPT(b *testing.B) {
	seq := zipfTrace(1<<16, 1<<14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := opt.New(1<<12, seq)
		for _, x := range seq {
			bl.Access(x)
		}
	}
	b.SetBytes(int64(len(seq)))
}

func BenchmarkHashRandomBucket(b *testing.B) {
	h := hashfn.NewRandom(1, 1<<10)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += h.Bucket(trace.Item(i))
	}
	_ = sink
}

func BenchmarkBallsBinsThrow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ballsbins.Throw(1<<12, 1<<8, uint64(i))
	}
}

func BenchmarkConcurrentGetPut(b *testing.B) {
	c, err := NewConcurrent(1<<14, 64, WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < 1<<14; i++ {
		c.Put(i, i)
	}
	var ctr atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			key := ctr.Add(1) % (1 << 15)
			if _, ok := c.Get(key); !ok {
				c.Put(key, key)
			}
		}
	})
}

// --- extension experiments (E15–E18) ---

func BenchmarkE15Indexing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E15Indexing(benchCfg())
		row := r.RowsTable[0]
		b.ReportMetric(row.BitSelectAMAT/row.RandomAMAT.Mean, "bit/rnd-amat")
	}
}

func BenchmarkE16Companion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E16Companion(benchCfg())
		b.ReportMetric(r.Rows[0].ExcessFactor.Mean, "excess@α1-comp1")
	}
}

func BenchmarkE17Mirror(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E17Mirror(benchCfg())
		last := r.Rows[len(r.Rows)-1]
		b.ReportMetric(last.MirrorRatio.Mean, "mirror-ratio")
	}
}

func BenchmarkE18StackDist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E18StackDist(benchCfg())
		b.ReportMetric(r.Rows[0].MeanDistance, "mean-depth")
	}
}

// --- extension micro-benchmarks ---

func BenchmarkStackDistProfiler(b *testing.B) {
	seq := zipfTrace(1<<16, 1<<14)
	p := stackdist.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Touch(seq[i%len(seq)])
	}
}

func BenchmarkMirrorAccess(b *testing.B) {
	seq := zipfTrace(1<<16, 1<<14)
	m, err := mirror.New(mirror.Config{
		Capacity: 1 << 12, Alpha: 64, SimCapacity: 3 << 10,
		Factory: policy.NewFactory(policy.LRUKind, 0), Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access(seq[i%len(seq)])
	}
}

func BenchmarkCompanionAccess(b *testing.B) {
	seq := zipfTrace(1<<16, 1<<14)
	c, err := companion.New(companion.Config{
		MainCapacity: 1 << 12, Alpha: 4, CompanionCapacity: 64,
		Factory: policy.NewFactory(policy.LRUKind, 0), Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(seq[i%len(seq)])
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h := hwcache.MustNew(hwcache.Config{
		LineSize: 64,
		Levels: []hwcache.LevelConfig{
			{Name: "L1", Lines: 512, Alpha: 8, Kind: policy.LRUKind, Latency: 4},
			{Name: "L2", Lines: 8192, Alpha: 16, Kind: policy.LRUKind, Latency: 12},
		},
		MemLatency: 200, Seed: 1,
	})
	addrs := hwcache.PointerChase(1<<16, 1<<13, 64, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(addrs[i%len(addrs)])
	}
}

func BenchmarkE19Skewed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.E19Skewed(benchCfg())
		if one, ok := r.ExcessFor(1, 4); ok {
			if two, ok2 := r.ExcessFor(2, 4); ok2 {
				b.ReportMetric(one/two, "d1/d2-excess@α4")
			}
		}
	}
}

func BenchmarkSkewedAccess(b *testing.B) {
	seq := zipfTrace(1<<16, 1<<14)
	c, err := skewed.New(skewed.Config{Capacity: 1 << 12, Alpha: 8, Choices: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(seq[i%len(seq)])
	}
}
