package main

import (
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/load"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestLRUMatchesCachesim is the ground truth for concurrent.excess_miss_ratio:
// on one generated stream, the benchmark's fully associative LRU must count
// exactly the misses cmd/cachesim -full -policy lru counts.
func TestLRUMatchesCachesim(t *testing.T) {
	const k, n = 4096, 200_000
	seq := workload.Zipf{Universe: 4 * k, S: zipfS, Shuffle: true}.Generate(n, 7)
	path := filepath.Join(t.TempDir(), "zipf.satr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, seq); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "run", "repro/cmd/cachesim", "-k", strconv.Itoa(k), "-full", "-policy", "lru", path).CombinedOutput()
	if err != nil {
		t.Fatalf("cachesim: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`misses:\s+(\d+)`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no miss count in cachesim output:\n%s", out)
	}
	want, _ := strconv.Atoi(string(m[1]))

	c := newLRU(k)
	stream := make([]uint64, len(seq))
	got := 0
	for i, x := range seq {
		stream[i] = uint64(x)
		if !c.access(stream[i]) {
			got++
		}
	}
	if got != want {
		t.Fatalf("LRU reference counts %d misses, cachesim -full counts %d", got, want)
	}
	// replayLRU over one caller and one node is the same replay.
	ratio := replayLRU([][]uint64{stream}, [][]int{{n}}, k, 1, func(uint64) int { return 0 })
	if r := float64(want) / n; ratio != r {
		t.Fatalf("replayLRU miss ratio %v, want %v", ratio, r)
	}
}

// TestTracedConnKeepsBatching shows the trace wrappers keep the codec's
// corking: a wrapped node-read GetBatch costs exactly one client flush
// and one round trip, and so does a SetBatch whose 8 KiB values travel as
// separate writev segments.
func TestTracedConnKeepsBatching(t *testing.T) {
	cache, err := concurrent.New(concurrent.Config{Capacity: 1 << 12, Alpha: nodeAlpha, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(cache)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := newPeerRegistry()
	on := new(atomic.Bool)
	on.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(tracedListener{Listener: ln, reg: reg, on: on})
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	ct := &callerTrace{reg: reg}
	cl, err := ct.dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	keys := make([]uint64, batchKeys)
	for i := range keys {
		keys[i] = uint64(i)
	}
	visit := func(int, bool, []byte) {}
	small := func(i int) []byte { return load.Payload(keys[i], smallValue) }
	big := func(i int) []byte { return load.Payload(keys[i], bigValue) }
	// The first flush carries the preamble too; measure steady state.
	if err := cl.SetBatch(keys, small); err != nil {
		t.Fatal(err)
	}
	check := func(name string, call func() error) {
		t.Helper()
		b := ct.snapshot()
		ct.readLast.Store(true)
		if err := call(); err != nil {
			t.Fatal(err)
		}
		a := ct.snapshot()
		if n := a.writes - b.writes; n != 1 {
			t.Errorf("%s: %d client flushes, want 1", name, n)
		}
		if n := a.rounds - b.rounds; n != 1 {
			t.Errorf("%s: %d round trips, want 1", name, n)
		}
		if a.reads == b.reads {
			t.Errorf("%s: no client reads", name)
		}
	}
	check("GetBatch", func() error { return cl.GetBatch(keys, visit) })
	check("SetBatch 8 KiB", func() error { return cl.SetBatch(keys, big) })
	// Small responses leave the server in one write per batch, and the
	// caller sees it through the registry.
	b := ct.snapshot()
	if err := cl.SetBatch(keys, small); err != nil {
		t.Fatal(err)
	}
	if err := cl.GetBatch(keys, visit); err != nil {
		t.Fatal(err)
	}
	if n := ct.snapshot().srvWrites - b.srvWrites; n != 2 {
		t.Errorf("server flushes over two small batches: %d, want 2", n)
	}
}

// TestWorkloadsReportDeclaredMetrics runs every workload briefly, traced
// and untraced, and checks that each run is correct and prints exactly
// the metrics BENCHMARK.json declares, with their units.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("boots every workload")
	}
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &decl); err != nil {
		t.Fatal(err)
	}
	for _, w := range decl.Workloads {
		if _, err := findSpec(w.Name); err != nil {
			t.Fatal(err)
		}
	}
	same := func(name string, got map[string]metric, want []struct{ Name, Unit string }) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", name, len(got), len(want))
		}
		for _, w := range want {
			if m, ok := got[w.Name]; !ok || m.Unit != w.Unit {
				t.Errorf("%s: metric %s = %+v, declared unit %q", name, w.Name, m, w.Unit)
			}
		}
	}
	// replicated-rw is not declared (README.md says why) but runs by name,
	// so it is held to the same contract.
	for i := range specs {
		s := &specs[i]
		res, err := runUntraced(s, 1, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d", s.name, res.Correct, res.Failed)
		}
		same(s.name, res.Metrics, decl.EndToEnd)
		res, err = runTraced(s, 1, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d", s.name, res.Correct, res.Failed)
		}
		same(s.name+" traced", res.Metrics, decl.PerLayer)
		if f := res.Metrics["wire.flushes_per_batch"].Value; s.name == "node-read" && f != 1 {
			t.Errorf("node-read: %v client flushes per GetBatch, want exactly 1", f)
		}
	}
}
