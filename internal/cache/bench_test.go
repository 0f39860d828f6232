package cache

import (
	"fmt"
	"testing"
)

// benchRecord has the size of the server's packed cachedRecord (one
// string and six uint32 offsets, 40 bytes), so a slot here is the
// size the server's slots are.
type benchRecord struct {
	fields string
	ends   [6]uint32
}

// benchKeys returns n distinct phrase-like keys of about the length
// of a sanitized ingredient line.
func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%d cups chopped onion, line %d", i%7+1, i)
	}
	return keys
}

// BenchmarkChurn is the corpus-mining shape: a full 65,536-entry
// cache read with 81,920 cycling keys (the batch-corpus stream
// length), so under LRU every lookup misses and every Put evicts. One
// op is one Get miss plus one evicting Put.
func BenchmarkChurn(b *testing.B) {
	const entries, stream = 64 << 10, 81920
	keys := benchKeys(stream)
	c := New[benchRecord](entries)
	for _, k := range keys {
		c.Put(k, 1, benchRecord{fields: k})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%stream]
		if _, ok := c.Get(k, 1); ok {
			b.Fatalf("cycling key %q hit", k)
		}
		c.Put(k, 1, benchRecord{fields: k})
	}
}

// BenchmarkHotHit is the heavy-tail shape: 20 hot keys, every Get a
// hit.
func BenchmarkHotHit(b *testing.B) {
	keys := benchKeys(20)
	c := New[benchRecord](64 << 10)
	for _, k := range keys {
		c.Put(k, 1, benchRecord{fields: k})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(keys[i%len(keys)], 1); !ok {
			b.Fatal("hot key missed")
		}
	}
}
