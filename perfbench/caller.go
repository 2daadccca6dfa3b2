package main

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/load"
)

// windows is how many equal slices a measured pass is cut into. Timing
// metrics are the median over the slices, so one slice disturbed by a
// neighbour on the host moves them less than it moves a whole-pass figure.
const windows = 10

// tally is what one caller measured in one pass.
type tally struct {
	attempted, failed, corrupt int64
	gets, misses               int64
	ops                        [windows]int64   // GET keys plus Dels completed
	getNs, writeNs             [windows][]int64 // per-call latencies
	st                         stages           // traced passes only
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.corrupt += o.corrupt
	t.gets += o.gets
	t.misses += o.misses
	for w := range t.ops {
		t.ops[w] += o.ops[w]
		t.getNs[w] = append(t.getNs[w], o.getNs[w]...)
		t.writeNs[w] = append(t.writeNs[w], o.writeNs[w]...)
	}
	t.st.add(o.st)
}

// caller is one closed-loop client: its connection, its slice of the key
// stream, and the per-batch scratch its callbacks fill.
type caller struct {
	spec   *spec
	dial   func() (load.Conn, error)
	conn   load.Conn
	cl     *cluster.Client // conn, on routed workloads
	tr     *callerTrace    // traced callers
	stream []uint64
	pos    int // keys consumed so far; the stream index is pos % len(stream)
	window int // the window the current connection serves
	// retired sums the router counters of the clients this caller closed.
	retired routerTotals

	batch   []uint64
	missed  []uint64
	vals    [][]byte
	corrupt int64
	cbNs    int64
	visit   func(i int, hit bool, v []byte)
	tvisit  func(i int, hit bool, v []byte)
	value   func(i int) []byte
}

// init builds the callbacks once, so the hot loop allocates none.
func (c *caller) init() {
	c.visit = func(i int, hit bool, v []byte) {
		k := c.batch[i]
		if !hit {
			c.missed = append(c.missed, k)
			return
		}
		if !c.spec.verify(k, v) {
			c.corrupt++
		}
	}
	c.tvisit = func(i int, hit bool, v []byte) {
		t0 := time.Now()
		c.visit(i, hit, v)
		c.cbNs += int64(time.Since(t0))
	}
	c.value = func(i int) []byte { return c.vals[i] }
}

func (c *caller) next(n int) []uint64 {
	c.batch = c.batch[:0]
	for ; n > 0; n-- {
		c.batch = append(c.batch, c.stream[c.pos%len(c.stream)])
		c.pos++
	}
	return c.batch
}

// fill writes the missed keys back, as a read-through cache's caller
// does after loading them from the origin.
func (c *caller) fill() error {
	c.vals = c.vals[:0]
	for _, k := range c.missed {
		c.vals = append(c.vals, load.Payload(k, c.spec.valueSize(k)))
	}
	return c.conn.SetBatch(c.missed, c.value)
}

// warm walks n keys of the stream in warmBatch batches with read-through
// fills. Any error aborts the set-up.
func (c *caller) warm(n int) error {
	for done := 0; done < n; done += warmBatch {
		c.next(min(warmBatch, n-done))
		c.missed = c.missed[:0]
		if err := c.conn.GetBatch(c.batch, c.visit); err != nil {
			return err
		}
		if len(c.missed) > 0 {
			if err := c.fill(); err != nil {
				return err
			}
		}
	}
	if c.corrupt > 0 {
		return errCorruptWarm
	}
	return nil
}

// run drives closed-loop steps from start until end. A step is one
// GetBatch, the fills for its misses and, where the workload deletes, one
// Del. A call that fails counts its keys as failed and the loop goes on.
//
// Each window after the first runs on freshly dialed connections. What a
// connection draws when it is set up (its goroutines' and threads'
// placement, its socket buffers) can hold a whole run at one latency
// level; redialing draws again once per window, and the median over
// windows does not hang on one draw.
func (c *caller) run(start, end time.Time, t *tally) {
	span := end.Sub(start)
	c.window = 0
	for {
		t0 := time.Now()
		if !t0.Before(end) {
			return
		}
		w := min(int(int64(t0.Sub(start))*windows/int64(span)), windows-1)
		if w != c.window {
			c.window = w
			c.reconnect()
		}
		c.step(w, t)
	}
}

func (c *caller) step(w int, t *tally) {
	keys := c.next(batchKeys)
	c.missed, c.corrupt = c.missed[:0], 0
	visit := c.visit
	var before sockTotals
	if c.tr != nil {
		visit = c.tvisit
		before = c.tr.snapshot()
		c.tr.readLast.Store(true)
		c.cbNs = 0
	}
	t0 := time.Now()
	err := c.conn.GetBatch(keys, visit)
	d := time.Since(t0)
	if c.tr != nil && err == nil {
		t.st.record(d, time.Duration(c.cbNs), before, c.tr.snapshot())
	}
	t.attempted += int64(len(keys))
	if err != nil {
		t.failed += int64(len(keys))
		c.recover()
	} else {
		t.gets += int64(len(keys))
		t.misses += int64(len(c.missed))
		t.corrupt += c.corrupt
		t.failed += c.corrupt
		t.ops[w] += int64(len(keys))
		t.getNs[w] = append(t.getNs[w], int64(d))
		if len(c.missed) > 0 {
			n := int64(len(c.missed))
			t.attempted += n
			f0 := time.Now()
			if err := c.fill(); err != nil {
				t.failed += n
				c.recover()
			} else {
				t.writeNs[w] = append(t.writeNs[w], int64(time.Since(f0)))
			}
		}
	}
	if c.spec.del {
		key := c.next(1)[0]
		t.attempted++
		d0 := time.Now()
		if _, err := c.cl.Del(key); err != nil {
			t.failed++
		} else {
			t.ops[w]++
			t.writeNs[w] = append(t.writeNs[w], int64(time.Since(d0)))
		}
	}
}

// recover replaces a raw wire connection after an error: its stream may
// hold the failed batch's undrained responses. A cluster client redials
// its members itself.
func (c *caller) recover() {
	if c.cl == nil {
		c.reconnect()
	}
}

// reconnect swaps in a freshly dialed client; if the dial fails the old
// one stays.
func (c *caller) reconnect() {
	conn, err := c.dial()
	if err != nil {
		return
	}
	c.close()
	c.setConn(conn)
}

func (c *caller) setConn(conn load.Conn) {
	c.conn = conn
	c.cl, _ = conn.(*cluster.Client)
}

// close closes the client, keeping its router counters. A cluster client
// stops its repair worker in Close, so its repair count is final only
// after it.
func (c *caller) close() {
	c.conn.Close()
	if c.cl != nil {
		c.retired.add(c.cl)
	}
}

// routerTotals sums cluster.Client counters.
type routerTotals struct {
	nearHits, staleHints, grants, waits, repairs uint64
}

func (t *routerTotals) add(cl *cluster.Client) {
	nh, sh, g, _, w := cl.LeaseCounters()
	t.plus(routerTotals{nh, sh, g, w, cl.RepairsDone()})
}

func (t *routerTotals) plus(o routerTotals) {
	t.nearHits += o.nearHits
	t.staleHints += o.staleHints
	t.grants += o.grants
	t.waits += o.waits
	t.repairs += o.repairs
}

func (t routerTotals) minus(o routerTotals) routerTotals {
	return routerTotals{t.nearHits - o.nearHits, t.staleHints - o.staleHints,
		t.grants - o.grants, t.waits - o.waits, t.repairs - o.repairs}
}

// counters is the caller's router counters over every client it used.
func (c *caller) counters() routerTotals {
	t := c.retired
	if c.cl != nil {
		t.add(c.cl)
	}
	return t
}
