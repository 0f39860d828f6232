package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recipemodel"
	"recipemodel/internal/core"
	"recipemodel/internal/quarantine"
	"recipemodel/internal/recipedb"
)

// benchAdapter bridges the public trained Pipeline to the server's
// interface (the same shim cmd/recipeserver uses); the benchmarks run
// the real compiled decode path, not a stub, so the cached/uncached
// ratio is the one an operator would see. It counts decodes so the
// benches can report model work per request alongside wall time —
// the number the cache actually moves when serialization, not the
// model, is the end-to-end floor.
type benchAdapter struct {
	p       *recipemodel.Pipeline
	decodes *atomic.Int64
}

func (a benchAdapter) AnnotateIngredientChecked(phrase string) (core.IngredientRecord, error) {
	a.decodes.Add(1)
	return a.p.AnnotateIngredientChecked(phrase)
}

func (a benchAdapter) AnnotateIngredientsPartial(ctx context.Context, phrases []string) ([]core.IngredientRecord, []quarantine.Rejection, error) {
	a.decodes.Add(int64(len(phrases)))
	return a.p.AnnotateIngredientsPartial(ctx, phrases)
}

func (a benchAdapter) ModelRecipeContext(ctx context.Context, title, cuisine string, ingredientLines []string, instructions string) (*core.RecipeModel, error) {
	return a.p.ModelRecipeContext(ctx, title, cuisine, ingredientLines, instructions)
}

var (
	benchPipeOnce sync.Once
	benchPipe     *recipemodel.Pipeline
	benchPipeErr  error
)

// trainedPipe trains one real pipeline for all benchmarks in the
// package (training cost is paid once, outside any timer) and hands
// each benchmark its own decode counter.
func trainedPipe(b *testing.B) benchAdapter {
	b.Helper()
	benchPipeOnce.Do(func() {
		benchPipe, benchPipeErr = recipemodel.NewPipeline(recipemodel.DefaultOptions())
	})
	if benchPipeErr != nil {
		b.Fatal(benchPipeErr)
	}
	return benchAdapter{p: benchPipe, decodes: new(atomic.Int64)}
}

// mix64 is splitmix64 — a deterministic index hash so the traffic mix
// is identical on every run and both sides of every comparison.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// heavyTailMix builds the 90%-duplicate request stream of DESIGN §13:
// 90% of requests draw from 20 hot phrases, 10% from a 2000-phrase
// tail that itself repeats across the stream — so at steady state the
// cache absorbs nearly everything, which is exactly the regime the
// tentpole is built for.
func heavyTailMix(n int) []string {
	hot := make([]string, 20)
	for i := range hot {
		hot[i] = fmt.Sprintf("%d cups chopped onion variant %d", 1+i%4, i)
	}
	tail := make([]string, 2000)
	for i := range tail {
		tail[i] = fmt.Sprintf("%d tbsp minced garlic batch %d", 1+i%6, i)
	}
	out := make([]string, n)
	for i := range out {
		h := mix64(uint64(i))
		if h%10 < 9 {
			out[i] = hot[(h>>8)%uint64(len(hot))]
		} else {
			out[i] = tail[(h>>8)%uint64(len(tail))]
		}
	}
	return out
}

// serveAnnotateMix drives b.N /annotate requests from the mix through
// h, reporting p99 latency, request throughput, and decodes per 1000
// requests alongside ns/op.
func serveAnnotateMix(b *testing.B, h http.Handler, pipe benchAdapter, mix []string) {
	b.Helper()
	bodies := make([]string, len(mix))
	for i, p := range mix {
		bodies[i] = annotateBody(p)
	}
	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	decodesBefore := pipe.decodes.Load()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/annotate", strings.NewReader(bodies[i%len(bodies)])))
		lat = append(lat, time.Since(start))
		if w.Code != 200 {
			b.Fatalf("annotate = %d %s", w.Code, w.Body.String())
		}
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
	b.ReportMetric(float64(time.Second)/float64(b.Elapsed().Nanoseconds())*float64(b.N), "req/s")
	b.ReportMetric(float64(pipe.decodes.Load()-decodesBefore)*1000/float64(b.N), "decodes/1000req")
}

// BenchmarkAnnotateHeavyTailUncached is the baseline: every request
// decodes, even the 90% duplicates.
func BenchmarkAnnotateHeavyTailUncached(b *testing.B) {
	pipe := trainedPipe(b)
	s := NewWithConfig(pipe, nil, Config{})
	s.SetReady(true)
	serveAnnotateMix(b, s, pipe, heavyTailMix(65536))
}

// BenchmarkAnnotateHeavyTailCached is the tentpole number: same mix,
// default cache bound — steady-state miss rate is the tail churn only.
func BenchmarkAnnotateHeavyTailCached(b *testing.B) {
	pipe := trainedPipe(b)
	s := NewWithConfig(pipe, nil, Config{CacheEntries: 64 << 10})
	s.SetReady(true)
	serveAnnotateMix(b, s, pipe, heavyTailMix(65536))
}

// BenchmarkAnnotateHotHitCached is the floor of the cached path: one
// phrase, always hit — pure lookup + serialization cost.
func BenchmarkAnnotateHotHitCached(b *testing.B) {
	pipe := trainedPipe(b)
	s := NewWithConfig(pipe, nil, Config{CacheEntries: 64 << 10})
	s.SetReady(true)
	serveAnnotateMix(b, s, pipe, []string{"2 cups chopped onion"})
}

// serveBatchMix drives b.N /annotate/batch requests of batchSize
// phrases each, reporting per-phrase throughput and decode work.
func serveBatchMix(b *testing.B, h http.Handler, pipe benchAdapter, mix []string, batchSize int) {
	b.Helper()
	var bodies []string
	for at := 0; at+batchSize <= len(mix); at += batchSize {
		var sb strings.Builder
		sb.WriteString(`{"phrases":[`)
		for j, p := range mix[at : at+batchSize] {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%q", p)
		}
		sb.WriteString(`]}`)
		bodies = append(bodies, sb.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	decodesBefore := pipe.decodes.Load()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/annotate/batch", strings.NewReader(bodies[i%len(bodies)])))
		if w.Code != 200 {
			b.Fatalf("batch = %d %.200s", w.Code, w.Body.String())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(batchSize)/b.Elapsed().Seconds(), "phrases/s")
	b.ReportMetric(float64(pipe.decodes.Load()-decodesBefore)*1000/(float64(b.N)*float64(batchSize)), "decodes/1000phrases")
}

// BenchmarkBatchHeavyTailUncached / Cached: the same 90%-duplicate
// stream chunked into 512-phrase batches. Both sides decode each
// distinct phrase of a batch once; only the cached side carries hits
// from one batch to the next.
func BenchmarkBatchHeavyTailUncached(b *testing.B) {
	pipe := trainedPipe(b)
	s := NewWithConfig(pipe, nil, Config{})
	s.SetReady(true)
	serveBatchMix(b, s, pipe, heavyTailMix(65536), 512)
}

func BenchmarkBatchHeavyTailCached(b *testing.B) {
	pipe := trainedPipe(b)
	s := NewWithConfig(pipe, nil, Config{CacheEntries: 64 << 10})
	s.SetReady(true)
	serveBatchMix(b, s, pipe, heavyTailMix(65536), 512)
}

// BenchmarkDegradedHitServing measures the overload posture: the
// limiter is fully saturated (its one unit held by the bench itself),
// yet hot-phrase requests keep answering from cache — the number an
// operator compares against the 429s everyone else gets.
func BenchmarkDegradedHitServing(b *testing.B) {
	pipe := trainedPipe(b)
	s := NewWithConfig(pipe, nil, Config{CacheEntries: 64 << 10, MaxInFlight: 1})
	s.SetReady(true)
	// warm the hot set while the limiter is idle.
	for _, p := range heavyTailMix(4096) {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/annotate", strings.NewReader(annotateBody(p))))
		if w.Code != 200 {
			b.Fatalf("warm-up = %d", w.Code)
		}
	}
	release, ok := s.limiter.TryAcquire(1)
	if !ok {
		b.Fatal("could not saturate limiter")
	}
	defer release()
	if !s.limiter.Saturated() {
		b.Fatal("limiter not saturated")
	}
	serveAnnotateMix(b, s, pipe, heavyTailMix(4096))
	if s.degradedHits.Load() == 0 {
		b.Fatal("no degraded hits recorded")
	}
}

// footprintLines returns n recipe ingredient lines with pairwise
// distinct cache keys, drawn as the batch-corpus benchmark stream draws
// its lines: whole recipes alternating the two source styles
// (generator seeds 77 and 78).
func footprintLines(b *testing.B, n int) []string {
	b.Helper()
	gens := []*recipedb.Generator{
		recipedb.NewGenerator(recipedb.SourceAllRecipes, 77),
		recipedb.NewGenerator(recipedb.SourceFoodCom, 78),
	}
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for r := 0; len(out) < n; r++ {
		if r > n {
			b.Fatalf("%d recipes yielded only %d distinct lines of %d", r, len(out), n)
		}
		for _, ing := range gens[r%2].Recipe().Ingredients {
			key, err := core.CanonicalKey(ing.Text)
			if err != nil || seen[key] || len(out) == n {
				continue
			}
			seen[key] = true
			out = append(out, ing.Text)
		}
	}
	return out
}

// liveHeap returns the bytes of live heap objects. The second GC
// empties the sync.Pool victim caches the first one only demotes, so
// pooled decode scratch does not count as retained.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkCacheFootprint measures what the annotation cache holds per
// entry at the default size. It fills a 65,536-entry server cache
// through /annotate/batch with 81,920 distinct generator lines (the
// batch-corpus stream length, enough that every shard reaches its
// bound) decoded by the trained pipeline, so every record is built by
// core.RecordFromSpans as a served one is, and reports the live heap
// the filled server adds, per cached entry (B/entry).
func BenchmarkCacheFootprint(b *testing.B) {
	const entries, batch = 64 << 10, 256
	pipe := trainedPipe(b)
	lines := footprintLines(b, 81920)
	bodies := make([]string, 0, len(lines)/batch)
	for at := 0; at < len(lines); at += batch {
		body, err := json.Marshal(map[string][]string{"phrases": lines[at : at+batch]})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, string(body))
	}
	fill := func(s *Server, bodies []string) {
		for _, body := range bodies {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/annotate/batch", strings.NewReader(body)))
			if w.Code != http.StatusOK {
				b.Fatalf("batch = %d %.200s", w.Code, w.Body.String())
			}
		}
	}
	// One batch through a throwaway server first, so the decode path's
	// pools and lazily built tables exist before the first measurement.
	fill(NewWithConfig(pipe, nil, Config{CacheEntries: entries}), bodies[:1])
	var perEntry float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := liveHeap()
		s := NewWithConfig(pipe, nil, Config{CacheEntries: entries})
		fill(s, bodies)
		retained := liveHeap() - before
		if n := s.cache.Len(); n != entries {
			b.Fatalf("cache holds %d entries after the fill, want %d", n, entries)
		}
		perEntry = float64(retained) / entries
		runtime.KeepAlive(s)
	}
	b.ReportMetric(perEntry, "B/entry")
}
