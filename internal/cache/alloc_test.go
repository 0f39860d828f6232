// The race runtime instruments allocations of its own, so
// AllocsPerRun counts are only meaningful in normal builds.
//go:build !race

package cache

import "testing"

// TestSteadyStateAllocs pins the slab's point: once a shard is full,
// no cache operation allocates — not a hit, not a miss, not a Put
// that evicts the LRU slot and reuses it, not a Put over a live key.
func TestSteadyStateAllocs(t *testing.T) {
	const entries = 1 << 10
	keys := benchKeys(4 * entries)
	c := New[benchRecord](entries)
	for _, k := range keys[:2*entries] {
		c.Put(k, 1, benchRecord{fields: k})
	}
	if n := c.Len(); n != entries {
		t.Fatalf("cache holds %d entries after the fill, want every shard full (%d)", n, entries)
	}
	hit := keys[2*entries-1]
	fresh := keys[2*entries:]
	i := 0
	cases := []struct {
		name      string
		op        func()
		evictions int64 // over AllocsPerRun's 201 calls
	}{
		{"get hit", func() {
			if _, ok := c.Get(hit, 1); !ok {
				t.Fatal("hot key missed")
			}
		}, 0},
		{"get miss", func() {
			if _, ok := c.Get(keys[0], 1); ok {
				t.Fatal("evicted key hit")
			}
		}, 0},
		{"evicting put", func() {
			c.Put(fresh[i%len(fresh)], 1, benchRecord{})
			i++
		}, 201},
		{"put over a live key", func() { c.Put(hit, 2, benchRecord{fields: hit}) }, 0},
	}
	for _, tc := range cases {
		before := c.Stats().Evictions
		if allocs := testing.AllocsPerRun(200, tc.op); allocs != 0 {
			t.Errorf("%s: %.1f allocations per op, want 0", tc.name, allocs)
		}
		if n := c.Stats().Evictions - before; n != tc.evictions {
			t.Errorf("%s: %d evictions in 201 calls, want %d", tc.name, n, tc.evictions)
		}
	}
}
