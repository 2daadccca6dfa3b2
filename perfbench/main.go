// Command perfbench is the repository's benchmark. It boots cache nodes
// in-process on loopback, drives one named workload with two closed-loop
// callers for a fixed time, checks every value it reads, and prints one
// JSON line: the end-to-end metrics, or with -trace 1 the per-layer split
// measured from outside the program. README.md in this directory says
// what each workload isolates and how each metric is measured.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload node-read --seed 1 --seconds 10 --trace 0
//
// It exits nonzero, after printing the result, when any correctness check
// fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// setupRuns is how many times an untraced run boots and warms its
// workload; setup_s is the median.
const setupRuns = 5

// stageTolerance bounds how far the traced stage means may add up away
// from the mean GetBatch time, as a share of it.
const stageTolerance = 0.05

var errCorruptWarm = errors.New("corrupt value read during the warm fill")

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "node-read | cluster-read | replicated-rw")
	seed := flag.Uint64("seed", 1, "seed of the key stream and of the nodes' hashes")
	seconds := flag.Int("seconds", 10, "length of the measured pass")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	// One P: the callers, routers and servers take turns on one CPU. On a
	// two-vCPU VM shared with other tenants, two Ps let the neighbours'
	// load and the placement of threads move a run's throughput and tail
	// by 20–50% between back-to-back runs of one build; one P kept such
	// runs within a few percent. The cost is that CPU parallelism, and
	// contention between the callers' goroutines, do not show.
	runtime.GOMAXPROCS(1)
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds must be ≥ 1 and -trace 0 or 1"))
	}
	s, err := findSpec(*name)
	if err != nil {
		fatal(err)
	}
	dur := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res, err = runTraced(s, *seed, dur)
	} else {
		res, err = runUntraced(s, *seed, dur)
	}
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// runUntraced is the end-to-end run: setupRuns boots, then one measured
// pass on the last.
func runUntraced(s *spec, seed uint64, dur time.Duration) (result, error) {
	streams := s.streams(seed)
	var setups []float64
	var r *rig
	for i := 0; i < setupRuns; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, err = boot(s, seed, streams, false); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	// Collect the discarded set-ups' nodes now, so that heap_peak_mib
	// measures the pass and not when the first collection happens to run.
	runtime.GC()
	p := r.pass(dur)
	res := result{Correct: p.t.corrupt == 0, Attempted: p.t.attempted, Failed: p.t.failed}
	if err := r.converged(&res); err != nil {
		return result{}, err
	}
	ops := float64(p.t.opsTotal())
	res.Metrics = map[string]metric{
		"setup_s":       {median(setups), "s"},
		"ops_s":         {p.opsRate(dur), "1/s"},
		"get_p50_us":    {windowQuantile(&p.t.getNs, 0.50) / 1e3, "us"},
		"get_p90_us":    {windowQuantile(&p.t.getNs, 0.90) / 1e3, "us"},
		"write_p50_us":  {windowQuantile(&p.t.writeNs, 0.50) / 1e3, "us"},
		"write_p90_us":  {windowQuantile(&p.t.writeNs, 0.90) / 1e3, "us"},
		"miss_ratio":    {div(float64(p.t.misses), float64(p.t.gets)), "ratio"},
		"ok_ratio":      {1 - div(float64(p.t.failed), float64(p.t.attempted)), "ratio"},
		"cpu_us_per_op": {div(float64((p.user + p.sys).Microseconds()), ops), "us"},
		"heap_peak_mib": {float64(p.heapPeak) / (1 << 20), "MiB"},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d: %.0f ops/s, GetBatch p50 %.1fµs p90 %.1fµs p99 %.1fµs, miss %.4f, %d of %d ops failed\n",
		s.name, seed, res.Metrics["ops_s"].Value, res.Metrics["get_p50_us"].Value, res.Metrics["get_p90_us"].Value,
		windowQuantile(&p.t.getNs, 0.99)/1e3, res.Metrics["miss_ratio"].Value, res.Failed, res.Attempted)
	return res, nil
}

// converged runs the replicated-rw ending: one more sweep, then every
// key's owners must agree. Other workloads have nothing to converge.
func (r *rig) converged(res *result) error {
	if !r.spec.sweep {
		return nil
	}
	divergent, err := r.checkConvergence()
	if err != nil {
		return err
	}
	if divergent > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d keys diverge across their owners after the final sweep\n", divergent)
		res.Correct = false
	}
	return nil
}

// passResult is one measured pass: the callers' tallies plus what the
// process, the routers and the sweeps did meanwhile.
type passResult struct {
	t         tally
	user, sys time.Duration
	allocs    uint64
	gcPause   time.Duration
	heapPeak  uint64
	router    routerTotals // summed over the callers' cluster clients
	sweeps    []time.Duration
	repaired  int
}

func (t *tally) opsTotal() int64 {
	var n int64
	for _, o := range t.ops {
		n += o
	}
	return n
}

// opsRate is the median over the pass's windows of the completed ops per
// second.
func (p *passResult) opsRate(dur time.Duration) float64 {
	win := dur.Seconds() / windows
	rates := make([]float64, windows)
	for w, n := range p.t.ops {
		rates[w] = float64(n) / win
	}
	return median(rates)
}

var sampleNames = []string{"/gc/heap/allocs:objects", "/memory/classes/heap/objects:bytes"}

// pass runs the callers for dur, and on workloads that sweep a
// maintenance caller that times AntiEntropySweep once a second.
func (r *rig) pass(dur time.Duration) passResult {
	var p passResult
	routerBefore := r.routerCounters()
	samples := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		samples[i].Name = n
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pause0 := ms.PauseTotalNs
	metrics.Read(samples)
	allocs0 := samples[0].Value.Uint64()
	user0, sys0 := cpuTimes()

	stop := make(chan struct{})
	peak := make(chan uint64)
	go heapSampler(stop, peak)

	tallies := make([]tally, len(r.callers))
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for i, c := range r.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(start, end, &tallies[i])
		}()
	}
	if r.spec.sweep {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next := start.Add(time.Second); next.Before(end); next = next.Add(time.Second) {
				time.Sleep(time.Until(next))
				t0 := time.Now()
				n, err := r.maint.AntiEntropySweep()
				p.sweeps = append(p.sweeps, time.Since(t0))
				p.repaired += n
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: sweep: %v\n", err)
					p.t.attempted++
					p.t.failed++
				}
			}
		}()
	}
	wg.Wait()

	user1, sys1 := cpuTimes()
	metrics.Read(samples)
	runtime.ReadMemStats(&ms)
	close(stop)
	p.heapPeak = <-peak
	p.user, p.sys = user1-user0, sys1-sys0
	p.allocs = samples[0].Value.Uint64() - allocs0
	p.gcPause = time.Duration(ms.PauseTotalNs - pause0)
	for i := range tallies {
		p.t.add(&tallies[i])
	}
	p.router = r.routerCounters().minus(routerBefore)
	return p
}

// heapSampler reports the peak heap in use, sampled every 10 ms until
// stop closes.
func heapSampler(stop <-chan struct{}, peak chan<- uint64) {
	s := []metrics.Sample{{Name: sampleNames[1]}}
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	var max uint64
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > max {
			max = v
		}
		select {
		case <-stop:
			peak <- max
			return
		case <-t.C:
		}
	}
}

func (r *rig) routerCounters() routerTotals {
	var t routerTotals
	for _, c := range r.callers {
		t.plus(c.counters())
	}
	return t
}

func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatal(fmt.Errorf("getrusage: %w", err))
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// positions is how far each caller has read its stream.
func (r *rig) positions() []int {
	out := make([]int, len(r.callers))
	for i, c := range r.callers {
		out[i] = c.pos
	}
	return out
}

// runTraced is the per-layer run: one boot, an untraced reference pass,
// then a pass through traced clients and sockets, each half of dur.
func runTraced(s *spec, seed uint64, dur time.Duration) (result, error) {
	dur /= 2
	streams := s.streams(seed)
	r, err := boot(s, seed, streams, true)
	if err != nil {
		return result{}, err
	}
	defer r.close()
	phases := [][]int{r.positions()}
	ref := r.pass(dur)
	phases = append(phases, r.positions())
	if err := r.retrace(); err != nil {
		return result{}, err
	}
	before, err := r.snapshot()
	if err != nil {
		return result{}, err
	}
	p := r.pass(dur)
	after, err := r.snapshot()
	if err != nil {
		return result{}, err
	}
	phases = append(phases, r.positions())

	res := result{
		Correct:   ref.t.corrupt == 0 && p.t.corrupt == 0,
		Attempted: ref.t.attempted + p.t.attempted,
		Failed:    ref.t.failed + p.t.failed,
	}
	m, stageOK := r.layerMetrics(&ref, &p, before, after, dur)
	if !s.del {
		m["concurrent.excess_miss_ratio"] = metric{m["concurrent.miss_ratio"].Value - r.lruMissRatio(streams, phases), "ratio"}
	}
	res.Metrics = m
	res.Correct = res.Correct && stageOK
	if err := r.converged(&res); err != nil {
		return result{}, err
	}
	return res, nil
}

// lruMissRatio replays what the callers read through one fully
// associative LRU of size k per node, each node seeing its own share.
func (r *rig) lruMissRatio(streams [][]uint64, phases [][]int) float64 {
	owner := func(uint64) int { return 0 }
	if r.maint != nil {
		idx := make(map[string]int, len(r.addrs))
		for i, a := range r.addrs {
			idx[a] = i
		}
		owner = func(k uint64) int { return idx[r.maint.Owners(k)[0]] }
	}
	return replayLRU(streams, phases, nodeK, len(r.addrs), owner)
}

// layerMetrics derives every per-layer metric from the traced pass p, the
// untraced reference pass ref and the servers' METRICS/STATS bracketing p.
// It also runs the stage-sum check.
func (r *rig) layerMetrics(ref, p *passResult, before, after []nodeSnap, dur time.Duration) (map[string]metric, bool) {
	st := p.t.st
	calls := float64(st.calls)
	ops := float64(p.t.opsTotal())
	perBatch := func(n int64) float64 { return div(float64(n), calls) }
	usPerBatch := func(ns int64) float64 { return div(float64(ns), calls) / 1e3 }
	perKop := func(n uint64) float64 { return div(float64(n), ops) * 1e3 }

	get := histDelta(before, after, byte(wire.OpGet), byte(wire.OpGetLease))
	set := histDelta(before, after, byte(wire.OpSet))
	del := histDelta(before, after, byte(wire.OpDel))
	repairWait := histDelta(before, after, wire.HistRepairWait)
	var hits, misses, conflicts, highwater, tombstones uint64
	for i := range after {
		a, b := after[i].s, before[i].s
		hits += a.Hits - b.Hits
		misses += a.Misses - b.Misses
		conflicts += a.ConflictEvictions - b.ConflictEvictions
		highwater = max(highwater, a.RepairQueueHighWater)
		tombstones += a.Tombstones
	}

	self := usPerBatch(st.selfNs)
	wireSelf, clusterSelf := self, 0.0
	if r.spec.routed {
		wireSelf, clusterSelf = 0, self
	}
	readWait := usPerBatch(st.readNs)
	srvFlush := usPerBatch(st.srvFlushNs)
	service := div(float64(get.Sum), calls) / 1e3
	var sweepMs float64
	for _, d := range p.sweeps {
		sweepMs += float64(d) / 1e6
	}
	sweepMs = div(sweepMs, float64(len(p.sweeps)))
	refOps, tracedOps := ref.opsRate(dur), p.opsRate(dur)

	m := map[string]metric{
		"wire.flushes_per_batch":      {perBatch(st.flushes), "count"},
		"wire.flush_us_per_batch":     {usPerBatch(st.flushNs), "us"},
		"wire.reads_per_batch":        {perBatch(st.reads), "count"},
		"wire.read_wait_us_per_batch": {readWait, "us"},
		"wire.self_us_per_batch":      {wireSelf, "us"},
		"wire.bytes_per_op":           {div(float64(r.clientBytes()), ops), "B"},

		"cluster.self_us_per_batch":     {clusterSelf, "us"},
		"cluster.round_trips_per_batch": {perBatch(st.rounds), "count"},
		"cluster.near_hit_ratio":        {div(float64(p.router.nearHits), float64(p.t.gets)), "ratio"},
		"cluster.lease_grants_per_kop":  {perKop(p.router.grants), "count"},
		"cluster.lease_waits_per_kop":   {perKop(p.router.waits), "count"},
		"cluster.stale_hints_per_kop":   {perKop(p.router.staleHints), "count"},
		"cluster.repairs_per_kop":       {perKop(p.router.repairs), "count"},
		"cluster.sweep_ms":              {sweepMs, "ms"},
		"cluster.sweep_repaired":        {div(float64(p.repaired), float64(len(p.sweeps))), "count"},

		"server.get_service_ns_p50":        {float64(get.Quantile(0.50)), "ns"},
		"server.get_service_ns_p99":        {float64(get.Quantile(0.99)), "ns"},
		"server.set_service_ns_p50":        {float64(set.Quantile(0.50)), "ns"},
		"server.del_service_ns_p50":        {float64(del.Quantile(0.50)), "ns"},
		"server.flushes_per_batch":         {perBatch(st.srvFlushes), "count"},
		"server.flush_us_per_batch":        {srvFlush, "us"},
		"server.repair_wait_us_p50":        {float64(repairWait.Quantile(0.50)) / 1e3, "us"},
		"server.repair_queue_highwater":    {float64(highwater), "count"},
		"server.tombstones_live":           {float64(tombstones), "count"},
		"server.unattributed_us_per_batch": {readWait - service - srvFlush, "us"},

		"concurrent.miss_ratio":                 {div(float64(misses), float64(hits+misses)), "ratio"},
		"concurrent.conflict_evictions_per_kop": {perKop(conflicts), "count"},
		"concurrent.excess_miss_ratio":          {0, "ratio"},

		"runtime.allocs_per_op":    {div(float64(p.allocs), ops), "count"},
		"runtime.gc_pause_ms":      {float64(p.gcPause) / 1e6, "ms"},
		"runtime.sys_cpu_share":    {div(float64(p.sys), float64(p.user+p.sys)), "ratio"},
		"bench.self_us_per_batch":  {usPerBatch(st.benchNs), "us"},
		"bench.trace_overhead_pct": {100 * (1 - div(tracedOps, refOps)), "%"},
	}

	mean := usPerBatch(st.callNs)
	sum := usPerBatch(st.benchNs) + self + usPerBatch(st.flushNs) + readWait
	off := div(sum-mean, mean)
	ok := st.calls > 0 && math.Abs(off) <= stageTolerance
	layer := "wire"
	if r.spec.routed {
		layer = "cluster"
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s stage sum over %d GetBatch calls: mean %.2fµs = bench %.2f + %s self %.2f + flush %.2f + read wait %.2f (sum %.2f, %+.2f%%, %d calls clamped)\n",
		r.spec.name, st.calls, mean, usPerBatch(st.benchNs), layer, self, usPerBatch(st.flushNs), readWait, sum, 100*off, st.clamped)
	fmt.Fprintf(os.Stderr, "perfbench: %s read wait %.2fµs = server GET service %.2f + server flush %.2f + unattributed %.2f\n",
		r.spec.name, readWait, service, srvFlush, readWait-service-srvFlush)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: stage sum is %.2f%% off the mean GetBatch time; tolerance %.0f%%\n", 100*off, 100*stageTolerance)
	}
	return m, ok
}

// clientBytes sums the bytes the traced callers' sockets moved.
func (r *rig) clientBytes() int64 {
	var n int64
	for _, c := range r.callers {
		n += c.tr.snapshot().bytes
	}
	return n
}

// histDelta merges the named histograms across nodes and subtracts the
// before snapshot, leaving the bracketed pass's samples.
func histDelta(before, after []nodeSnap, ids ...byte) *telemetry.HistogramSnapshot {
	var d telemetry.HistogramSnapshot
	for i := range after {
		for _, id := range ids {
			if a := after[i].m.Hist(id); a != nil {
				d.Merge(a)
			}
			if b := before[i].m.Hist(id); b != nil {
				d.Count -= b.Count
				d.Sum -= b.Sum
				for j, n := range b.Buckets {
					d.Buckets[j] -= n
				}
			}
		}
	}
	return &d
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile interpolates the p-quantile of sorted samples.
func quantile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	x := p * float64(len(sorted)-1)
	i := int(x)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	f := x - float64(i)
	return float64(sorted[i])*(1-f) + float64(sorted[i+1])*f
}

// windowQuantile is the median over the windows of each window's
// p-quantile; empty windows are skipped.
func windowQuantile(ws *[windows][]int64, p float64) float64 {
	var qs []float64
	for _, w := range ws {
		if len(w) == 0 {
			continue
		}
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		qs = append(qs, quantile(w, p))
	}
	return median(qs)
}
