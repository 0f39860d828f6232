// Package cache is the heavy-tail annotation memo: a sharded,
// concurrency-safe LRU keyed on sanitized phrase bytes. The paper's
// corpus applies one CRF to 11.5M largely duplicated phrases ("salt",
// "2 eggs" dominate real ingredient traffic), so a serving stack that
// remembers the last few tens of thousands of decodes answers the
// bulk of a heavy-tail mix from a table lookup instead of a Viterbi
// pass.
//
// Two design points carry the correctness story:
//
//   - Keys are canonical: callers key on core.CanonicalKey(phrase)
//     (the PR 4 sanitizer), so byte-level variants of one phrase
//     (NBSP vs space, un-normalized composition) share an entry while
//     the echoed Phrase field stays the caller's raw string.
//   - Entries are generation-pinned: every Get and Put carries the
//     generation of the model the caller resolved, and Get returns an
//     entry only when its generation matches. A hot reload bumps the
//     serving generation (internal/server pairs it atomically with
//     the pipeline pointer), which invalidates every older entry
//     logically at zero cost — stale entries are collected lazily, on
//     the mismatching Get or by LRU pressure, never by a
//     stop-the-world flush.
//
// Each shard is a slab, not a map: its entries live in one slice of
// slots linked into a recency cycle by int32 indices, and an
// open-addressed []uint64 table of (32-bit hash tag, slot) words
// finds them, with linear probing and backward-shift deletion, so no
// tombstones build up. There is no map because a corpus-mining stream
// misses most lookups into a full cache, so nearly every Put evicts:
// behind a map plus a pointer-linked list each such Put would
// allocate a heap entry and delete a swiss-table key, and every GC
// cycle would mark each of the 65,536 entry objects. In the slab a Put
// into a full shard overwrites the evicted LRU slot in place and
// allocates nothing, and the collector sees one slot slice and one
// word table per shard.
//
// The cache.lookup fault point fires at the top of every Get; an
// injected error makes the lookup behave as a miss (a flaky cache
// degrades to decoding, never to wrong answers), and OnHit gives
// chaos drills a deterministic interleaving hook between a caller's
// lookup and its decode.
package cache

import (
	"sync"
	"sync/atomic"

	"recipemodel/internal/faults"
)

// FaultLookup fires at the top of every Get, before the shard lock is
// taken. Arm with Err to simulate an unavailable cache (lookups
// degrade to misses), or OnHit to gate drill interleavings at exact
// lookup counts.
const FaultLookup = "cache.lookup"

var _ = faults.MustRegister(FaultLookup)

// numShards spreads the key space over independent locks; 16 is
// plenty for a single process (the lock is held for a short probe and
// a few index swaps).
const numShards = 16

// minAlloc is the first size of a shard's slot slice and of its
// index. The slots double up to the shard bound; the index doubles
// whenever an insert would leave it more than half full.
const minAlloc = 8

// slot is one cached record, linked into its shard's recency cycle by
// slot indices. tag is the high half of the key's hash, kept so that
// an index word can be found again without rehashing the key. A free
// slot is zero apart from next, which threads the free list.
type slot[V any] struct {
	key        string
	val        V
	gen        uint64
	tag        uint32
	prev, next int32
}

// shard is one lock's worth of the cache. slots grows on demand up to
// limit; index holds one word per live slot, tag<<32 | slot+1, with 0
// meaning empty, at the first free position probing forward from the
// tag's home position tag & (len(index)-1).
type shard[V any] struct {
	mu    sync.Mutex
	slots []slot[V]
	index []uint64
	head  int32 // most recently used slot; its prev is the LRU; -1 when empty
	free  int32 // first free slot; -1 when none
	n     int   // live slots
	limit int
}

func (s *shard[V]) init(limit int) {
	s.head, s.free = -1, -1
	s.limit = limit
}

// find returns the slot holding key and the index position of its
// word, or slot -1 when key is absent.
func (s *shard[V]) find(key string, tag uint32) (int32, uint32) {
	if s.n == 0 {
		return -1, 0
	}
	mask := uint32(len(s.index) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		w := s.index[i]
		if w == 0 {
			return -1, i
		}
		if uint32(w>>32) == tag {
			if si := int32(uint32(w)) - 1; s.slots[si].key == key {
				return si, i
			}
		}
	}
}

// insert places the word for slot si at the first empty position
// from its tag's home.
func (s *shard[V]) insert(tag uint32, si int32) {
	mask := uint32(len(s.index) - 1)
	i := tag & mask
	for s.index[i] != 0 {
		i = (i + 1) & mask
	}
	s.index[i] = uint64(tag)<<32 | uint64(si+1)
}

// position returns where slot si's word sits in the index. It matches
// whole words, so evicting the LRU slot never reads its key's bytes.
func (s *shard[V]) position(si int32) uint32 {
	tag := s.slots[si].tag
	w := uint64(tag)<<32 | uint64(si+1)
	mask := uint32(len(s.index) - 1)
	i := tag & mask
	for s.index[i] != w {
		i = (i + 1) & mask
	}
	return i
}

// remove empties index position i and shifts later words of the same
// probe run back into the gap, so every remaining word stays
// reachable from its home position without tombstones: a word at j
// may fill the gap at i when its home lies cyclically at or before i.
func (s *shard[V]) remove(i uint32) {
	mask := uint32(len(s.index) - 1)
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		w := s.index[j]
		if w == 0 {
			break
		}
		if home := uint32(w>>32) & mask; (j-home)&mask >= (j-i)&mask {
			s.index[i] = w
			i = j
		}
	}
	s.index[i] = 0
}

// grow doubles the index and re-places every live slot by walking the
// recency cycle.
func (s *shard[V]) grow() {
	s.index = make([]uint64, max(2*len(s.index), minAlloc))
	if s.head < 0 {
		return
	}
	for si := s.head; ; {
		s.insert(s.slots[si].tag, si)
		if si = s.slots[si].next; si == s.head {
			return
		}
	}
}

// alloc takes a slot off the free list, or appends one; the slot
// slice doubles up to the shard bound.
func (s *shard[V]) alloc() int32 {
	if si := s.free; si >= 0 {
		s.free = s.slots[si].next
		return si
	}
	if len(s.slots) == cap(s.slots) {
		grown := make([]slot[V], len(s.slots), min(max(2*cap(s.slots), minAlloc), s.limit))
		copy(grown, s.slots)
		s.slots = grown
	}
	s.slots = s.slots[:len(s.slots)+1]
	return int32(len(s.slots) - 1)
}

// release zeroes slot si, so the collector can drop its key and value,
// and puts it on the free list.
func (s *shard[V]) release(si int32) {
	s.slots[si] = slot[V]{next: s.free}
	s.free = si
}

func (s *shard[V]) unlink(si int32) {
	e := &s.slots[si]
	if e.next == si {
		s.head = -1
		return
	}
	s.slots[e.prev].next = e.next
	s.slots[e.next].prev = e.prev
	if s.head == si {
		s.head = e.next
	}
}

func (s *shard[V]) pushFront(si int32) {
	e := &s.slots[si]
	if s.head < 0 {
		e.prev, e.next = si, si
	} else {
		h := &s.slots[s.head]
		e.prev, e.next = h.prev, s.head
		s.slots[h.prev].next = si
		h.prev = si
	}
	s.head = si
}

// moveFront makes si the most recent slot. The LRU slot needs no
// relinking: in a cycle, rotating the head onto it does the move.
func (s *shard[V]) moveFront(si int32) {
	switch si {
	case s.head:
	case s.slots[s.head].prev:
		s.head = si
	default:
		s.unlink(si)
		s.pushFront(si)
	}
}

// Stats is a point-in-time counter snapshot. Misses include lookups
// that found a stale-generation entry (which also count one eviction,
// since the entry is dropped on the spot).
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
}

// Cache is a sharded LRU of at most ~entries values. All methods are
// safe for concurrent use; a nil *Cache is a valid always-miss cache,
// so callers can keep one code path whether caching is on or off.
type Cache[V any] struct {
	shards    [numShards]shard[V]
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// New builds a cache bounded to roughly entries values (the bound is
// enforced per shard, so the effective capacity is the nearest
// multiple of the shard count, minimum one per shard). entries <= 0
// returns nil — the always-miss cache.
func New[V any](entries int) *Cache[V] {
	if entries <= 0 {
		return nil
	}
	perShard := (entries + numShards - 1) / numShards
	c := &Cache[V]{}
	for i := range c.shards {
		c.shards[i].init(perShard)
	}
	return c
}

// hashKey is FNV-1a over the key bytes: the low bits pick the shard,
// the high 32 bits are the key's index tag.
func hashKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// Get returns the value cached under key for generation gen. A stored
// entry from another generation is a miss — and is evicted on the
// spot, since no future Get at the current generation can ever use
// it. An injected FaultLookup error also reads as a miss: the caller
// falls back to decoding.
func (c *Cache[V]) Get(key string, gen uint64) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	if err := faults.Inject(FaultLookup); err != nil {
		c.misses.Add(1)
		return v, false
	}
	h := hashKey(key)
	s := &c.shards[h%numShards]
	s.mu.Lock()
	si, at := s.find(key, uint32(h>>32))
	if si < 0 {
		s.mu.Unlock()
		c.misses.Add(1)
		return v, false
	}
	if s.slots[si].gen != gen {
		s.unlink(si)
		s.remove(at)
		s.release(si)
		s.n--
		s.mu.Unlock()
		c.evictions.Add(1)
		c.misses.Add(1)
		return v, false
	}
	s.moveFront(si)
	v = s.slots[si].val
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Put stores v under key for generation gen, refreshing recency. When
// the shard is at its bound the least-recently-used entry is evicted
// and its slot reused in place. Storing over an existing key replaces
// its value and generation in place.
func (c *Cache[V]) Put(key string, gen uint64, v V) {
	if c == nil {
		return
	}
	h := hashKey(key)
	tag := uint32(h >> 32)
	s := &c.shards[h%numShards]
	s.mu.Lock()
	if si, _ := s.find(key, tag); si >= 0 {
		e := &s.slots[si]
		e.val, e.gen = v, gen
		s.moveFront(si)
		s.mu.Unlock()
		return
	}
	var si int32
	evicted := s.n >= s.limit
	if evicted {
		si = s.slots[s.head].prev
		s.remove(s.position(si))
		s.moveFront(si)
	} else {
		if 2*(s.n+1) > len(s.index) {
			s.grow()
		}
		si = s.alloc()
		s.pushFront(si)
		s.n++
	}
	e := &s.slots[si]
	e.key, e.val, e.gen, e.tag = key, v, gen, tag
	s.insert(tag, si)
	s.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
	}
}

// Len reports the live entry count across all shards (including
// not-yet-collected stale-generation entries).
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.n
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}
