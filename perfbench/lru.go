package main

// lru is a fully associative LRU cache of fixed capacity over uint64 keys:
// the offline reference each node's set-associative store is compared
// with. A miss inserts the key, evicting the least recently used one when
// full, exactly as cmd/cachesim -full -policy lru counts.
type lru struct {
	slot       map[uint64]int32
	key        []uint64
	prev, next []int32 // recency list over slots; -1 ends it
	head, tail int32   // most and least recently used
}

func newLRU(capacity int) *lru {
	return &lru{
		slot: make(map[uint64]int32, capacity),
		key:  make([]uint64, 0, capacity),
		prev: make([]int32, 0, capacity),
		next: make([]int32, 0, capacity),
		head: -1,
		tail: -1,
	}
}

// access references key and reports whether it was resident.
func (c *lru) access(key uint64) bool {
	if s, ok := c.slot[key]; ok {
		c.unlink(s)
		c.pushFront(s)
		return true
	}
	var s int32
	if len(c.key) < cap(c.key) {
		s = int32(len(c.key))
		c.key = append(c.key, key)
		c.prev = append(c.prev, -1)
		c.next = append(c.next, -1)
	} else {
		s = c.tail
		c.unlink(s)
		delete(c.slot, c.key[s])
		c.key[s] = key
	}
	c.slot[key] = s
	c.pushFront(s)
	return false
}

func (c *lru) unlink(s int32) {
	p, n := c.prev[s], c.next[s]
	if p >= 0 {
		c.next[p] = n
	} else {
		c.head = n
	}
	if n >= 0 {
		c.prev[n] = p
	} else {
		c.tail = p
	}
}

func (c *lru) pushFront(s int32) {
	c.prev[s], c.next[s] = -1, c.head
	if c.head >= 0 {
		c.prev[c.head] = s
	}
	c.head = s
	if c.tail < 0 {
		c.tail = s
	}
}

// replayLRU replays the callers' consumed streams through one
// fully associative LRU of size capacity per node and returns the miss
// ratio over the last phase. phases[p][c] is how many keys caller c had
// consumed when phase p ended; within a phase the callers' batches are
// interleaved round-robin, the closest offline stand-in for the order the
// servers saw. owner maps a key to its node.
func replayLRU(streams [][]uint64, phases [][]int, capacity, nodes int, owner func(uint64) int) float64 {
	caches := make([]*lru, nodes)
	for i := range caches {
		caches[i] = newLRU(capacity)
	}
	var accesses, misses int64
	pos := make([]int, len(streams))
	for p, ends := range phases {
		counted := p == len(phases)-1
		for more := true; more; {
			more = false
			for c, s := range streams {
				end := min(pos[c]+batchKeys, ends[c])
				for ; pos[c] < end; pos[c]++ {
					k := s[pos[c]%len(s)]
					hit := caches[owner(k)].access(k)
					if counted {
						accesses++
						if !hit {
							misses++
						}
					}
				}
				more = more || pos[c] < ends[c]
			}
		}
	}
	if accesses == 0 {
		return 0
	}
	return float64(misses) / float64(accesses)
}
