package cache

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"recipemodel/internal/faults"
)

func TestPutGet(t *testing.T) {
	c := New[string](64)
	if _, ok := c.Get("salt", 1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("salt", 1, "NaCl")
	v, ok := c.Get("salt", 1)
	if !ok || v != "NaCl" {
		t.Fatalf("Get = (%q, %v)", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestGenerationMismatchIsMissAndEvicts: the reload-invalidation
// contract — an entry stored under generation g is unreachable at
// generation g+1, and the mismatching lookup collects it.
func TestGenerationMismatchIsMissAndEvicts(t *testing.T) {
	c := New[string](64)
	c.Put("salt", 1, "old model's answer")
	if _, ok := c.Get("salt", 2); ok {
		t.Fatal("stale-generation entry served")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 0 {
		t.Fatalf("stale entry not collected: %+v", st)
	}
	// the key is free for the new generation.
	c.Put("salt", 2, "new model's answer")
	if v, ok := c.Get("salt", 2); !ok || v != "new model's answer" {
		t.Fatalf("Get after refill = (%q, %v)", v, ok)
	}
}

// TestPutReplacesAcrossGenerations: Put over an existing key adopts
// the new value and generation in place.
func TestPutReplacesAcrossGenerations(t *testing.T) {
	c := New[int](64)
	c.Put("k", 1, 10)
	c.Put("k", 2, 20)
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("old generation still served after replace")
	}
	// the gen-1 lookup evicted the entry; refill and check gen 2.
	c.Put("k", 2, 20)
	if v, ok := c.Get("k", 2); !ok || v != 20 {
		t.Fatalf("Get = (%d, %v)", v, ok)
	}
}

// sameShardKeys returns n distinct keys that hash to the shard of
// "seed".
func sameShardKeys(n int) []string {
	target := hashKey("seed") % numShards
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("key-%d", i); hashKey(k)%numShards == target {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestLRUEviction: filling one shard past its bound drops the least
// recently used key. Keys are forced onto one shard by probing.
func TestLRUEviction(t *testing.T) {
	// capacity 16 → 1 entry per shard; find three keys on one shard.
	c := New[int](16)
	keys := sameShardKeys(3)
	c.Put(keys[0], 1, 0)
	c.Put(keys[1], 1, 1) // evicts keys[0] (shard bound is 1)
	if _, ok := c.Get(keys[0], 1); ok {
		t.Fatal("LRU entry survived over-bound Put")
	}
	if v, ok := c.Get(keys[1], 1); !ok || v != 1 {
		t.Fatalf("newest entry missing: (%d, %v)", v, ok)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

// TestLRURecencyOrder: a Get refreshes recency, so the untouched key
// is the one evicted.
func TestLRURecencyOrder(t *testing.T) {
	c := New[int](32) // 2 per shard
	keys := sameShardKeys(3)
	c.Put(keys[0], 1, 0)
	c.Put(keys[1], 1, 1)
	if _, ok := c.Get(keys[0], 1); !ok { // refresh keys[0]
		t.Fatal("warm entry missing")
	}
	c.Put(keys[2], 1, 2) // evicts keys[1], the LRU
	if _, ok := c.Get(keys[1], 1); ok {
		t.Fatal("LRU entry survived")
	}
	if _, ok := c.Get(keys[0], 1); !ok {
		t.Fatal("refreshed entry evicted")
	}
}

// TestNilCacheAlwaysMisses: a nil cache is the cache-off mode; every
// operation is a safe no-op.
func TestNilCacheAlwaysMisses(t *testing.T) {
	var c *Cache[int]
	c.Put("k", 1, 1)
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("nil cache hit")
	}
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Fatal("nil cache has state")
	}
	if New[int](0) != nil {
		t.Fatal("New(0) should be the nil always-miss cache")
	}
}

// TestFaultLookupDegradesToMiss: an injected lookup error reads as a
// miss — callers fall back to decoding, never to an error or a stale
// value.
func TestFaultLookupDegradesToMiss(t *testing.T) {
	defer faults.Reset()
	c := New[string](64)
	c.Put("salt", 1, "cached")
	faults.Enable(FaultLookup, faults.Fault{Err: errors.New("cache flake")})
	if _, ok := c.Get("salt", 1); ok {
		t.Fatal("hit through an injected lookup fault")
	}
	faults.Disable(FaultLookup)
	if v, ok := c.Get("salt", 1); !ok || v != "cached" {
		t.Fatalf("entry lost after fault: (%q, %v)", v, ok)
	}
}

// TestConcurrentAccess: hammer all shards from many goroutines; the
// race detector is the assertion, plus basic conservation of the
// counters.
func TestConcurrentAccess(t *testing.T) {
	c := New[int](128)
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", (w*31+i)%200)
				if v, ok := c.Get(k, 1); ok && v != len(k) {
					t.Errorf("corrupt value %d for %q", v, k)
					return
				}
				c.Put(k, 1, len(k))
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != workers*500 {
		t.Fatalf("lookups = %d, want %d", st.Hits+st.Misses, workers*500)
	}
	if st.Entries > 128+numShards {
		t.Fatalf("entries = %d exceeds bound", st.Entries)
	}
}
