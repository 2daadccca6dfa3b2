package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/load"
)

// TestBatchExactlyOnceMatrix drives the batch engine through every
// combination of replication, leases and the near-cache. Each run writes a
// batch that repeats a key, then reads a batch that repeats both a
// resident and a cold key among other resident and cold keys; the read
// must visit every position exactly once, every resident position must hit
// with the payload written, and no cold position may hit. Each case runs
// once on healthy connections and once with one member's router
// connections killed before each call, so every configuration also goes
// through the replay-once recovery.
func TestBatchExactlyOnceMatrix(t *testing.T) {
	addrs := startCluster(t, 3, 4096, 16)
	base := uint64(1 << 20)
	for _, replicas := range []int{1, 2} {
		for _, leases := range []bool{false, true} {
			for _, slots := range []int{0, 64} {
				opts := Options{Replicas: replicas, Leases: leases, NearCache: NearCacheOptions{Slots: slots}}
				for _, kill := range []bool{false, true} {
					name := fmt.Sprintf("R=%d/leases=%v/near=%d/kill=%v", replicas, leases, slots, kill)
					base += 100
					t.Run(name, func(t *testing.T) { exactlyOnceRun(t, addrs, opts, base, kill) })
				}
			}
		}
	}
}

func exactlyOnceRun(t *testing.T, addrs []string, opts Options, base uint64, kill bool) {
	c, err := Dial(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resident := []uint64{base + 1, base + 2, base + 3, base + 1}
	cold := []uint64{base + 50, base + 51}
	payload := func(k uint64) []byte { return load.Payload(k, 32) }
	victim := c.Owners(resident[0])[0]
	killVictim := func() {
		c.mu.RLock()
		defer c.mu.RUnlock()
		nc := c.nodes[victim]
		nc.mu.Lock()
		if nc.cl != nil {
			nc.cl.Close()
		}
		nc.mu.Unlock()
	}

	if kill {
		killVictim()
	}
	if err := c.SetBatch(resident, func(i int) []byte { return payload(resident[i]) }); err != nil {
		t.Fatalf("SetBatch: %v", err)
	}

	keys := []uint64{resident[0], cold[0], resident[1], resident[0], cold[1], cold[0], resident[2]}
	isCold := map[uint64]bool{cold[0]: true, cold[1]: true}
	seen := make([]int, len(keys))
	if kill {
		killVictim()
	}
	err = c.GetBatch(keys, func(i int, hit bool, value []byte) {
		seen[i]++
		k := keys[i]
		switch {
		case isCold[k] && hit:
			t.Errorf("position %d: cold key %d hit", i, k)
		case !isCold[k] && !hit:
			t.Errorf("position %d: resident key %d missed", i, k)
		case hit && !bytes.Equal(value, payload(k)):
			t.Errorf("position %d: key %d hit with %q, want the written payload", i, k, value)
		}
	})
	if err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("position %d (key %d) visited %d times, want exactly once", i, keys[i], n)
		}
	}
	if kill && c.Counters()[victim].Redials == 0 {
		t.Errorf("no redial of %s counted after its connection was killed", victim)
	}
}
