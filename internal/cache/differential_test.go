package cache

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"
)

// refCache is the test-only reference LRU: the map plus
// container/list layout the slab replaced, with the same FNV-1a shard
// choice, per-shard bound, generation pinning and counters. The slab
// must agree with it on every operation.
type refCache struct {
	shards                  [numShards]refShard
	hits, misses, evictions int64
}

type refShard struct {
	items map[string]*list.Element
	order list.List // front is most recent
	limit int
}

type refEntry struct {
	key string
	val int
	gen uint64
}

func newRefCache(entries int) *refCache {
	r := &refCache{}
	for i := range r.shards {
		r.shards[i].items = map[string]*list.Element{}
		r.shards[i].limit = (entries + numShards - 1) / numShards
	}
	return r
}

func (r *refCache) get(key string, gen uint64) (int, bool) {
	s := &r.shards[hashKey(key)%numShards]
	el, ok := s.items[key]
	if !ok {
		r.misses++
		return 0, false
	}
	e := el.Value.(*refEntry)
	if e.gen != gen {
		s.order.Remove(el)
		delete(s.items, key)
		r.evictions++
		r.misses++
		return 0, false
	}
	s.order.MoveToFront(el)
	r.hits++
	return e.val, true
}

func (r *refCache) put(key string, gen uint64, v int) {
	s := &r.shards[hashKey(key)%numShards]
	if el, ok := s.items[key]; ok {
		e := el.Value.(*refEntry)
		e.val, e.gen = v, gen
		s.order.MoveToFront(el)
		return
	}
	s.items[key] = s.order.PushFront(&refEntry{key: key, val: v, gen: gen})
	if len(s.items) > s.limit {
		lru := s.order.Back()
		s.order.Remove(lru)
		delete(s.items, lru.Value.(*refEntry).key)
		r.evictions++
	}
}

func (r *refCache) stats() Stats {
	n := 0
	for i := range r.shards {
		n += len(r.shards[i].items)
	}
	return Stats{Hits: r.hits, Misses: r.misses, Evictions: r.evictions, Entries: n}
}

// checkShard verifies the slab's structure: the recency list is one
// cycle of exactly n slots with consistent back links; live slots
// plus the free list account for every slot, and there are at most
// limit of them; the index holds one word per live slot, is at most
// half full, and every live slot is found from its tag's home position
// without crossing an empty word.
func checkShard[V any](s *shard[V]) error {
	state := make([]byte, len(s.slots)) // 1 live, 2 free
	live := 0
	if s.head >= 0 {
		for si := s.head; ; {
			if si < 0 || int(si) >= len(s.slots) || state[si] != 0 {
				return fmt.Errorf("recency list reaches slot %d twice or out of range", si)
			}
			state[si] = 1
			live++
			next := s.slots[si].next
			if next < 0 || int(next) >= len(s.slots) || s.slots[next].prev != si {
				return fmt.Errorf("slot %d: next %d does not link back", si, next)
			}
			if si = next; si == s.head {
				break
			}
		}
	}
	if live != s.n {
		return fmt.Errorf("recency cycle holds %d slots, Len counts %d", live, s.n)
	}
	free := 0
	for si := s.free; si >= 0; si = s.slots[si].next {
		if int(si) >= len(s.slots) || state[si] != 0 {
			return fmt.Errorf("free list reaches slot %d, which is live, repeated or out of range", si)
		}
		state[si] = 2
		free++
		if e := s.slots[si]; e.key != "" || e.gen != 0 || e.tag != 0 {
			return fmt.Errorf("free slot %d not zeroed: %q gen %d", si, e.key, e.gen)
		}
	}
	if live+free != len(s.slots) || len(s.slots) > s.limit {
		return fmt.Errorf("%d live + %d free slots, slice holds %d, bound %d", live, free, len(s.slots), s.limit)
	}
	words := 0
	for _, w := range s.index {
		if w == 0 {
			continue
		}
		words++
		si := int32(uint32(w)) - 1
		if si < 0 || int(si) >= len(s.slots) || state[si] != 1 || s.slots[si].tag != uint32(w>>32) {
			return fmt.Errorf("index word %#x names no live slot with its tag", w)
		}
	}
	if words != live || 2*live > len(s.index) {
		return fmt.Errorf("index holds %d words of %d for %d live slots", words, len(s.index), live)
	}
	for si, st := range state {
		if st != 1 {
			continue
		}
		e := &s.slots[si]
		if e.tag != uint32(hashKey(e.key)>>32) {
			return fmt.Errorf("slot %d: tag %#x is not the hash of %q", si, e.tag, e.key)
		}
		if got, _ := s.find(e.key, e.tag); got != int32(si) {
			return fmt.Errorf("slot %d (%q) unreachable from its home position: find = %d", si, e.key, got)
		}
	}
	return nil
}

// checkCache runs checkShard on every shard and checks each live key
// sits in the shard its hash names.
func checkCache[V any](c *Cache[V]) error {
	for i := range c.shards {
		s := &c.shards[i]
		if err := checkShard(s); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		for si := s.head; si >= 0; {
			if h := hashKey(s.slots[si].key) % numShards; h != uint64(i) {
				return fmt.Errorf("shard %d holds %q of shard %d", i, s.slots[si].key, h)
			}
			if si = s.slots[si].next; si == s.head {
				break
			}
		}
	}
	return nil
}

// opKinds is the number of distinct operations harness.step decodes.
const opKinds = 10

// harness drives a slab cache and the reference side by side.
type harness struct {
	c    *Cache[int]
	ref  *refCache
	gen  uint64
	keys []string
}

// newHarness builds a cache of the given capacity and a key space
// half again as large as its effective bound, so shards both hit and
// evict.
func newHarness(capacity int) *harness {
	bound := (capacity + numShards - 1) / numShards * numShards
	keys := make([]string, bound*3/2+4)
	for i := range keys {
		keys[i] = fmt.Sprintf("phrase %d", i)
	}
	return &harness{c: New[int](capacity), ref: newRefCache(capacity), gen: 1, keys: keys}
}

// step runs operation kind (mod opKinds) on key index key on both
// caches and returns an error at the first disagreement in a Get's
// result or in Stats, or at any broken structure. Kinds: 0–3 Get at
// the serving generation, 4 Get at an older or newer one, 5–7 Put at
// the serving generation, 8 Put under an older one, 9 a generation
// bump.
func (h *harness) step(kind, key, val int) error {
	k := h.keys[key%len(h.keys)]
	switch kind % opKinds {
	case 0, 1, 2, 3, 4:
		gen := h.gen
		if kind%opKinds == 4 {
			gen = h.gen - 1 + uint64(2*(key&1)) // gen-1 or gen+1
		}
		v, ok := h.c.Get(k, gen)
		rv, rok := h.ref.get(k, gen)
		if v != rv || ok != rok {
			return fmt.Errorf("Get(%q, %d) = (%d, %v), reference (%d, %v)", k, gen, v, ok, rv, rok)
		}
	case 5, 6, 7, 8:
		gen := h.gen
		if kind%opKinds == 8 {
			gen--
		}
		h.c.Put(k, gen, val)
		h.ref.put(k, gen, val)
	case 9:
		h.gen++
	}
	if st, rst := h.c.Stats(), h.ref.stats(); st != rst {
		return fmt.Errorf("Stats = %+v, reference %+v", st, rst)
	}
	return checkCache(h.c)
}

// TestDifferentialAgainstReferenceLRU replays seeded random operation
// streams against the slab and the reference. Capacities 1 and 17
// exercise the per-shard rounding; the small key space keeps every
// shard full, so most Puts evict.
func TestDifferentialAgainstReferenceLRU(t *testing.T) {
	for _, capacity := range []int{1, 16, 17, 100, 1000} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cap=%d/seed=%d", capacity, seed), func(t *testing.T) {
				h := newHarness(capacity)
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 3000; i++ {
					kind, key := rng.Intn(opKinds), rng.Intn(len(h.keys))
					if err := h.step(kind, key, i); err != nil {
						t.Fatalf("op %d (kind %d): %v", i, kind, err)
					}
				}
				if st := h.c.Stats(); st.Hits == 0 || st.Evictions == 0 {
					t.Fatalf("stream exercised too little: %+v", st)
				}
			})
		}
	}
}

// FuzzCacheOps decodes its input as an operation stream for the same
// side-by-side harness: the first byte picks the capacity, then each
// pair of bytes is one operation kind and one key index.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{0, 5, 1, 5, 2, 0, 1, 9, 0, 1})
	f.Add([]byte{2, 5, 1, 5, 17, 5, 33, 0, 1, 4, 17, 8, 2, 0, 2})
	f.Add([]byte{3, 6, 7, 6, 8, 6, 9, 9, 0, 0, 7, 4, 8, 7, 9})
	capacities := []int{1, 16, 17, 100}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		h := newHarness(capacities[int(ops[0])%len(capacities)])
		for i := 1; i+1 < len(ops); i += 2 {
			if err := h.step(int(ops[i]), int(ops[i+1]), i); err != nil {
				t.Fatalf("op at byte %d: %v", i, err)
			}
		}
	})
}
