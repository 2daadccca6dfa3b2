package cluster

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/server"
	"repro/internal/trace"
)

// TestLeaseHerdSuppression is the regression test for the v7 lease
// semantics: N independent read-through clients storm one cold key
// concurrently, and exactly ONE of them observes the miss (winning the
// fill lease and loading the origin); the rest are absorbed — they wait
// out the fill and read the stored value. Under pre-v7 semantics every
// client misses and every client loads the origin, so this test fails
// with misses == N.
func TestLeaseHerdSuppression(t *testing.T) {
	addrs := startCluster(t, 3, 4096, 16)
	const n = 8
	const key = uint64(0xC01D)
	payload := []byte("origin-load-payload")

	clients := make([]*Client, n)
	for i := range clients {
		c, err := Dial(addrs, Options{Leases: true, NearCache: NearCacheOptions{Slots: 64}})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	var misses, originLoads atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			<-start
			// One read-through iteration, as the harness performs it: GET,
			// and on a miss load the origin and SET the result back.
			val, hit, err := c.Get(key)
			if err != nil {
				t.Error(err)
				return
			}
			if !hit {
				misses.Add(1)
				originLoads.Add(1)
				if err := c.Set(key, payload); err != nil {
					t.Error(err)
				}
				return
			}
			if string(val) != string(payload) {
				t.Errorf("storm read returned %q, want %q", val, payload)
			}
		}(c)
	}
	close(start)
	wg.Wait()

	if got := misses.Load(); got != 1 {
		t.Fatalf("storm of %d clients observed %d misses, want exactly 1 (the lease holder)", n, got)
	}
	if got := originLoads.Load(); got != 1 {
		t.Fatalf("storm of %d clients loaded the origin %d times, want exactly 1", n, got)
	}

	// The servers agree: one lease was granted cluster-wide and one SET
	// (the holder's fill) landed.
	stats, err := clients[0].StatsAll(false)
	if err != nil {
		t.Fatal(err)
	}
	agg := AggregateStats(stats)
	if agg.LeasesGranted != 1 {
		t.Fatalf("cluster granted %d leases, want 1", agg.LeasesGranted)
	}
	if agg.Sets != 1 {
		t.Fatalf("cluster absorbed %d SETs, want 1 (the single fill)", agg.Sets)
	}
}

// TestLeaseHerdSuppressionReplicated repeats the storm under R=2: round 0
// leases at the primary, the grant falls back through the replica (also
// cold), and the invariant is the same — one origin load, everyone else
// served.
func TestLeaseHerdSuppressionReplicated(t *testing.T) {
	addrs := startCluster(t, 3, 4096, 16)
	const n = 6
	const key = uint64(0xC01D2)
	payload := []byte("replicated-origin-load")

	clients := make([]*Client, n)
	for i := range clients {
		c, err := Dial(addrs, Options{Replicas: 2, Leases: true, NearCache: NearCacheOptions{Slots: 64}})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	var misses atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			<-start
			_, hit, err := c.Get(key)
			if err != nil {
				t.Error(err)
				return
			}
			if !hit {
				misses.Add(1)
				if err := c.Set(key, payload); err != nil {
					t.Error(err)
				}
			}
		}(c)
	}
	close(start)
	wg.Wait()

	if got := misses.Load(); got != 1 {
		t.Fatalf("replicated storm of %d clients observed %d misses, want exactly 1", n, got)
	}
	stats, err := clients[0].StatsAll(false)
	if err != nil {
		t.Fatal(err)
	}
	if agg := AggregateStats(stats); agg.LeasesGranted != 1 {
		t.Fatalf("cluster granted %d leases, want 1", agg.LeasesGranted)
	}

	// The fill propagated: both owners eventually hold the key (the
	// non-primary through the fill's background repair).
	c := clients[0]
	owners := c.Owners(key)
	if len(owners) != 2 {
		t.Fatalf("Owners(%d) = %v, want 2", key, owners)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		stats, err := c.StatsAll(false)
		if err != nil {
			t.Fatal(err)
		}
		total := uint64(0)
		for _, addr := range owners {
			if st := stats[addr]; st != nil {
				total += st.Len
			}
		}
		if total >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fill did not propagate to the replica: %d copies resident", total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLeaseFillDiscardedWhenLost pins the documented read-through
// contract: a SET arriving while the key's lease was superseded by a
// fresher write is discarded as a successful no-op — the fresher value
// survives.
func TestLeaseFillDiscardedWhenLost(t *testing.T) {
	addrs := startCluster(t, 1, 4096, 16)
	holder, err := Dial(addrs, Options{Leases: true})
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	writer, err := Dial(addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	const key = uint64(77)
	if _, hit, err := holder.Get(key); err != nil || hit {
		t.Fatalf("cold GET: hit=%v err=%v", hit, err)
	}
	// A plain client's user SET lands between the holder's miss and fill.
	if err := writer.Set(key, []byte("fresh-user-write")); err != nil {
		t.Fatal(err)
	}
	// The holder's read-through fill must lose and be discarded.
	if err := holder.Set(key, []byte("stale-fill")); err != nil {
		t.Fatal(err)
	}
	_, _, lost, _ := leaseTally(holder)
	if lost != 1 {
		t.Fatalf("holder counted %d lost fills, want 1", lost)
	}
	val, hit, err := writer.Get(key)
	if err != nil || !hit {
		t.Fatalf("GET after fill: hit=%v err=%v", hit, err)
	}
	if string(val) != "fresh-user-write" {
		t.Fatalf("discarded fill overwrote the fresher write: got %q", val)
	}
}

func leaseTally(c *Client) (nearHits, staleHints, lost, waits uint64) {
	nh, sh, _, ll, lw := c.LeaseCounters()
	return nh, sh, ll, lw
}

// seqPayload encodes a worker-visible sequence number into a payload and
// seqOf reads it back, so readers can assert ordering on what they were
// actually served.
func seqPayload(seq uint64) []byte {
	v := make([]byte, 8)
	binary.LittleEndian.PutUint64(v, seq)
	return v
}

func seqOf(v []byte) uint64 { return binary.LittleEndian.Uint64(v) }

// TestNearCacheMonotonicUnderWrites races near-cached readers against a
// sequential writer per key and asserts every reader observes each key's
// sequence numbers non-decreasing: the version-invalidated near-cache
// never serves an older value after a newer one has been observed
// through the same client. Run with -race, this is also the data-race
// check on the near-cache and grant table.
func TestNearCacheMonotonicUnderWrites(t *testing.T) {
	addrs := startCluster(t, 3, 4096, 16)
	c, err := Dial(addrs, Options{Leases: true, NearCache: NearCacheOptions{Slots: 128, TTL: 5 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const nKeys = 4
	const writes = 200
	const readers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// One sequential writer per key: its SETs get strictly increasing
	// server versions, so payload sequence order == version order.
	for k := 0; k < nKeys; k++ {
		wg.Add(1)
		go func(key uint64) {
			defer wg.Done()
			for seq := uint64(1); seq <= writes; seq++ {
				if err := c.Set(key, seqPayload(seq)); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(1000 + k))
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := make(map[uint64]uint64, nKeys)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k := 0; k < nKeys; k++ {
					key := uint64(1000 + k)
					val, hit, err := c.Get(key)
					if err != nil {
						t.Error(err)
						return
					}
					if !hit {
						continue
					}
					seq := seqOf(val)
					if seq < last[key] {
						t.Errorf("key %d: observed seq %d after %d — near-cache served a resurrected older value", key, seq, last[key])
						return
					}
					last[key] = seq
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Writers finish on their own; readers spin until told to stop.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done
}

// TestNearCacheNoResurrectionAfterDel deletes a near-cached key and
// asserts that once a subsequent read has observed the miss, the value
// never reappears (nothing writes it again).
func TestNearCacheNoResurrectionAfterDel(t *testing.T) {
	addrs := startCluster(t, 3, 4096, 16)
	c, err := Dial(addrs, Options{NearCache: NearCacheOptions{Slots: 64, TTL: 20 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const key = uint64(4242)
	if err := c.Set(key, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := c.Get(key); err != nil || !hit {
		t.Fatalf("warm GET: hit=%v err=%v", hit, err)
	}
	if present, err := c.Del(key); err != nil || !present {
		t.Fatalf("DEL: present=%v err=%v", present, err)
	}
	// Del purges the near-cache, so the miss must be immediate.
	for i := 0; i < 10; i++ {
		_, hit, err := c.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatalf("GET %d after DEL returned the deleted value", i)
		}
	}
}

// TestLoadHarnessCollectsLeaseCounters wires a leased/near-cached cluster
// client through the load harness and asserts the LeaseReporter tallies
// surface in the Result — a hot workload must show near-cache absorption.
func TestLoadHarnessCollectsLeaseCounters(t *testing.T) {
	addrs := startCluster(t, 3, 4096, 16)
	opts := Options{Leases: true, NearCache: NearCacheOptions{Slots: 512}}

	// A maximally hot stream: one key read over and over.
	keys := make(trace.Sequence, 4096)
	for i := range keys {
		keys[i] = 7
	}
	const pipeline = 16
	res, err := load.Run(load.Config{
		Dial:        func() (load.Conn, error) { return Dial(addrs, opts) },
		Conns:       2,
		Keys:        keys,
		Pipeline:    pipeline,
		ValueSize:   16,
		ReadThrough: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NearHits == 0 {
		t.Fatalf("hot single-key run reported 0 near-cache hits (grants=%d waits=%d)", res.LeaseGrants, res.LeaseWaits)
	}
	if res.LeaseGrants == 0 {
		t.Fatal("read-through run reported 0 lease grants")
	}
	// A batch asks the owner once per distinct key, and every position
	// naming that key shares the answer, so one grant or wait explains at
	// most a whole batch of missed positions.
	if res.Misses > pipeline*(res.LeaseGrants+res.LeaseWaits) {
		t.Fatalf("misses=%d exceed %d×(grants+waits=%d): the storm was not lease-bounded", res.Misses, pipeline, res.LeaseGrants+res.LeaseWaits)
	}
}

// TestLeasedBatchRepeatedColdKey: a leased batch that names one cold key
// twice must ask the owner once. Two GETLs would win the grant with the
// first copy and be told the lease is held on the second, and the batch
// would then wait out its own grant for leaseWaitCap.
func TestLeasedBatchRepeatedColdKey(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		addrs := startCluster(t, 3, 4096, 16)
		c, err := Dial(addrs, Options{Leases: true, Replicas: replicas})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		const key = uint64(0xD0D0)
		seen := make([]int, 2)
		start := time.Now()
		err = c.GetBatch([]uint64{key, key}, func(i int, hit bool, _ []byte) {
			if hit {
				t.Errorf("R=%d: position %d hit a cold key", replicas, i)
			}
			seen[i]++
		})
		took := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if seen[0] != 1 || seen[1] != 1 {
			t.Fatalf("R=%d: positions visited %v times, want once each", replicas, seen)
		}
		if took > leaseWaitCap/2 {
			t.Fatalf("R=%d: batch took %v, waiting on its own lease (cap %v)", replicas, took, leaseWaitCap)
		}
		if _, _, grants, _, waits := c.LeaseCounters(); grants != 1 || waits != 0 {
			t.Fatalf("R=%d: %d grants and %d lease waits, want 1 and 0", replicas, grants, waits)
		}
	}
}

// TestLeaseWaiterFallsBackWhenPrimaryDies: a read waiting on a lease that
// another client holds keeps polling through the same rounds as a first
// read, so when the primary dies mid-wait the poll fails over to the
// surviving replica instead of surfacing the dead primary's dial error —
// a read errors only when every owner of the key was unreachable.
func TestLeaseWaiterFallsBackWhenPrimaryDies(t *testing.T) {
	addrs := make([]string, 3)
	servers := make(map[string]*server.Server, 3)
	for i := range addrs {
		var srv *server.Server
		addrs[i], srv = startNodeWithServer(t, 4096, 16, uint64(i+1))
		servers[addrs[i]] = srv
	}
	opts := Options{Replicas: 2, Leases: true}
	holder, err := Dial(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	waiter, err := Dial(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Close()

	const key = uint64(0xDEAD1)
	// The holder wins the fill lease at the primary and never fills.
	if _, hit, err := holder.Get(key); err != nil || hit {
		t.Fatalf("holder's cold GET: hit=%v err=%v", hit, err)
	}
	primary := waiter.Owners(key)[0]
	killed := make(chan error, 1)
	go func() {
		// Close the primary a few milliseconds into the waiter's wait on
		// the holder's lease.
		for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if _, _, _, _, waits := waiter.LeaseCounters(); waits > 0 {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		killed <- servers[primary].Close()
	}()

	visits := 0
	err = waiter.GetBatch([]uint64{key}, func(_ int, hit bool, _ []byte) {
		visits++
		if hit {
			t.Error("cold key read as a hit")
		}
	})
	if kerr := <-killed; kerr != nil {
		t.Fatal(kerr)
	}
	if err != nil {
		t.Fatalf("waiting read failed although the secondary is up: %v", err)
	}
	if visits != 1 {
		t.Fatalf("key visited %d times, want exactly once", visits)
	}
	if _, _, _, _, waits := waiter.LeaseCounters(); waits != 1 {
		t.Fatalf("waiter counted %d lease waits, want 1 — the read never waited on the holder's lease", waits)
	}
}
