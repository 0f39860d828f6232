package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"recipemodel/internal/cache"
	"recipemodel/internal/core"
	"recipemodel/internal/faults"
	"recipemodel/internal/flight"
	"recipemodel/internal/quarantine"
)

// countingPipe is a deterministic Pipeline stub whose record fields
// are a pure function of the phrase's canonical key — exactly the
// property the real pipeline has (it decodes the sanitized phrase)
// and the one the cache's Phrase-rewrite contract rests on. The Name
// field embeds the pipe's tag, so a differential test can tell which
// model (v1 vs a reloaded v2) produced a response, and the Phrase
// field echoes the raw request phrase like the real pipeline does.
type countingPipe struct {
	tag string
	// decodes counts Checked calls (the reload canary's included) and
	// per-phrase Partial decodes.
	decodes atomic.Int64
	// slow, when non-nil, blocks decodes of phrases with the "slow:"
	// prefix until the channel closes — the deterministic saturated-
	// limiter prop for the degraded-mode tests.
	slow chan struct{}
}

func (c *countingPipe) AnnotateIngredientChecked(phrase string) (core.IngredientRecord, error) {
	c.decodes.Add(1)
	if c.slow != nil && strings.HasPrefix(phrase, "slow:") {
		<-c.slow
	}
	if err := poison(phrase); err != nil {
		return core.IngredientRecord{Phrase: phrase}, err
	}
	key, err := core.CanonicalKey(phrase)
	if err != nil {
		return core.IngredientRecord{Phrase: phrase}, err
	}
	return core.IngredientRecord{
		Phrase:   phrase,
		Name:     c.tag + ":" + key,
		Quantity: strconv.Itoa(len(key)),
		Unit:     "cups",
	}, nil
}

func (c *countingPipe) AnnotateIngredientsPartial(ctx context.Context, phrases []string) ([]core.IngredientRecord, []quarantine.Rejection, error) {
	out := make([]core.IngredientRecord, len(phrases))
	var rejs []quarantine.Rejection
	for i, p := range phrases {
		rec, err := c.AnnotateIngredientChecked(p)
		if err != nil {
			rejs = append(rejs, quarantine.Reject(i, p, err))
			continue
		}
		out[i] = rec
	}
	return out, rejs, ctx.Err()
}

func (c *countingPipe) ModelRecipeContext(ctx context.Context, title, cuisine string, ingredientLines []string, instructions string) (*core.RecipeModel, error) {
	return &core.RecipeModel{Title: title, Cuisine: cuisine}, ctx.Err()
}

// canaryFor pins the golden set to a pipe tag so reload tests can
// adopt candidates from the same stub family.
func canaryFor(tag string) []core.CanaryCase {
	return []core.CanaryCase{{Phrase: "2 cups onion", WantName: tag + ":2 cups onion"}}
}

// waitUntil spins until cond holds — clock-free (conditions are
// monotone under a held fault gate).
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i > 1e8 {
			t.Fatal("condition never became true")
		}
		runtime.Gosched()
	}
}

func annotateBody(phrase string) string {
	b, _ := json.Marshal(map[string]string{"phrase": phrase})
	return string(b)
}

// TestCacheHitSkipsDecode: the memoization contract plus its /readyz
// observability — second identical request decodes nothing, counters
// move, generation reports.
func TestCacheHitSkipsDecode(t *testing.T) {
	pipe := &countingPipe{tag: "v1"}
	s := NewWithConfig(pipe, nil, Config{CacheEntries: 128})
	s.SetReady(true)

	w1 := do(t, s, http.MethodPost, "/annotate", annotateBody("2 cups onion"))
	w2 := do(t, s, http.MethodPost, "/annotate", annotateBody("2 cups onion"))
	if w1.Code != 200 || w2.Code != 200 {
		t.Fatalf("codes = %d, %d", w1.Code, w2.Code)
	}
	if w1.Body.String() != w2.Body.String() {
		t.Fatalf("hit body diverged:\n%s\nvs\n%s", w1.Body.String(), w2.Body.String())
	}
	if got := pipe.decodes.Load(); got != 1 {
		t.Fatalf("decodes = %d, want 1", got)
	}
	var ready readyResponse
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/readyz", "").Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if !ready.Cache.Enabled || ready.Cache.Hits != 1 || ready.Cache.Generation != 1 {
		t.Fatalf("cache status = %+v", ready.Cache)
	}
	if ready.Cache.Misses == 0 || ready.Cache.Entries != 1 {
		t.Fatalf("cache status = %+v", ready.Cache)
	}
}

// TestCacheHitEchoesRequestPhrase: a hit answers with the raw phrase
// of the request that hit, never the one that filled the entry. The
// entry is filled with one byte variant of a phrase and hit with the
// other (a space against an NBSP: one canonical key), in both orders
// and across every pair of /annotate and /annotate/batch.
func TestCacheHitEchoesRequestPhrase(t *testing.T) {
	const space, nbsp = "2 cups onion", "2 cups\u00a0onion"
	served := func(t *testing.T, s *Server, path, phrase string) core.IngredientRecord {
		t.Helper()
		if path == "/annotate" {
			w := do(t, s, http.MethodPost, path, annotateBody(phrase))
			var rec core.IngredientRecord
			if w.Code != 200 || json.Unmarshal(w.Body.Bytes(), &rec) != nil {
				t.Fatalf("%s %q = %d %s", path, phrase, w.Code, w.Body.String())
			}
			return rec
		}
		body, _ := json.Marshal(map[string][]string{"phrases": {phrase}})
		w := do(t, s, http.MethodPost, path, string(body))
		resp := decodeBatch(t, w)
		if w.Code != 200 || len(resp.Results) != 1 || resp.Results[0].Record == nil {
			t.Fatalf("%s %q = %d %s", path, phrase, w.Code, w.Body.String())
		}
		return *resp.Results[0].Record
	}
	for _, fillPath := range []string{"/annotate", "/annotate/batch"} {
		for _, hitPath := range []string{"/annotate", "/annotate/batch"} {
			for _, pair := range [][2]string{{space, nbsp}, {nbsp, space}} {
				fill, hit := pair[0], pair[1]
				t.Run(fmt.Sprintf("%s %+q then %s %+q", fillPath, fill, hitPath, hit), func(t *testing.T) {
					pipe := &countingPipe{tag: "v1"}
					s := NewWithConfig(pipe, nil, Config{CacheEntries: 128})
					s.SetReady(true)
					filled := served(t, s, fillPath, fill)
					got := served(t, s, hitPath, hit)
					if n := pipe.decodes.Load(); n != 1 {
						t.Fatalf("decodes = %d, want 1 (the second request must hit)", n)
					}
					want := filled
					want.Phrase = hit
					if got != want {
						t.Fatalf("hit served %+v, want %+v", got, want)
					}
				})
			}
		}
	}
}

// TestCacheOffDecodesEveryRequest: CacheEntries 0 turns the memo off
// — sequential identical requests each decode — and /readyz reports
// the cache disabled.
func TestCacheOffDecodesEveryRequest(t *testing.T) {
	pipe := &countingPipe{tag: "v1"}
	s := NewWithConfig(pipe, nil, Config{})
	s.SetReady(true)
	do(t, s, http.MethodPost, "/annotate", annotateBody("salt"))
	do(t, s, http.MethodPost, "/annotate", annotateBody("salt"))
	if got := pipe.decodes.Load(); got != 2 {
		t.Fatalf("decodes = %d, want 2", got)
	}
	var ready readyResponse
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/readyz", "").Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Cache.Enabled {
		t.Fatal("cache reported enabled with CacheEntries 0")
	}
}

// differentialPhrases is a request mix covering every response shape:
// hot duplicates, canonical-key variants (NBSP, zero-width space)
// that share a cache entry but echo different raw bytes, quarantine
// rejections (whitespace-only, contained panic, over-cap), and cold
// singletons.
func differentialPhrases() []string {
	return []string{
		"2 cups onion",
		"salt",
		"2 cups onion",
		"2 cups\u00a0onion",  // NBSP variant: same canonical key, different raw bytes
		"2 cups onion\u200b", // zero-width-space variant: same canonical key
		"   ",                // empty_after_clean rejection
		"panic:boom",         // contained tagger panic rejection
		"1 tbsp butter",
		"salt",
		"2 eggs",
		strings.Repeat("a", 100<<10), // over the 64 KiB phrase cap: too_long rejection
		"2 eggs",
		"salt",
	}
}

// TestAnnotateByteIdenticalToSerialOracle is the differential
// contract of DESIGN §13: for any request mix, /annotate answers
// byte-for-byte what the serial oracle does — including rejection
// payloads and raw-phrase echoes on shared cache entries — with the
// memo off and on.
func TestAnnotateByteIdenticalToSerialOracle(t *testing.T) {
	for _, cacheEntries := range []int{0, 256} {
		t.Run(fmt.Sprintf("cache=%d", cacheEntries), func(t *testing.T) {
			s := NewWithConfig(&countingPipe{tag: "m"}, nil, Config{CacheEntries: cacheEntries})
			s.SetReady(true)
			// two passes so the second pass serves from a warm cache.
			for pass := 0; pass < 2; pass++ {
				for i, phrase := range differentialPhrases() {
					req := chaosRequest{path: "/annotate", body: annotateBody(phrase)}
					w := do(t, s, http.MethodPost, req.path, req.body)
					want := serialOracle(t, "m", req)
					if w.Code != want.code || w.Body.String() != want.body {
						t.Fatalf("pass %d request %d (%.40q): server (%d, %s) vs oracle (%d, %s)",
							pass, i, phrase, w.Code, w.Body.String(), want.code, want.body)
					}
				}
			}
		})
	}
}

// TestBatchByteIdenticalToSerialOracle: same differential contract
// for the batch endpoint, which additionally deduplicates misses —
// the envelope (per-item statuses, roll-up counts, HTTP status) must
// not show it.
func TestBatchByteIdenticalToSerialOracle(t *testing.T) {
	body, _ := json.Marshal(map[string][]string{"phrases": differentialPhrases()})
	req := chaosRequest{path: "/annotate/batch", body: string(body)}
	want := serialOracle(t, "m", req)
	for _, cacheEntries := range []int{0, 256} {
		t.Run(fmt.Sprintf("cache=%d", cacheEntries), func(t *testing.T) {
			s := NewWithConfig(&countingPipe{tag: "m"}, nil, Config{CacheEntries: cacheEntries})
			s.SetReady(true)
			for pass := 0; pass < 2; pass++ {
				w := do(t, s, http.MethodPost, req.path, req.body)
				if w.Code != want.code || w.Body.String() != want.body {
					t.Fatalf("pass %d: server (%d) vs oracle (%d)\n--- server ---\n%s\n--- oracle ---\n%s",
						pass, w.Code, want.code, w.Body.String(), want.body)
				}
			}
		})
	}
}

// TestBatchDedupDecodesUniqueMissesOnce: a batch dominated by one hot
// phrase decodes each distinct phrase once, and its admission weight
// is the deduplicated miss count — a 100-phrase batch fits through a
// 3-unit limiter.
func TestBatchDedupDecodesUniqueMissesOnce(t *testing.T) {
	pipe := &countingPipe{tag: "v1"}
	s := NewWithConfig(pipe, nil, Config{CacheEntries: 128, MaxInFlight: 3})
	s.SetReady(true)
	phrases := make([]string, 0, 100)
	for i := 0; i < 50; i++ {
		phrases = append(phrases, "salt", "2 eggs")
	}
	body, _ := json.Marshal(map[string][]string{"phrases": phrases})
	w := do(t, s, http.MethodPost, "/annotate/batch", string(body))
	if w.Code != 200 {
		t.Fatalf("batch = %d body = %s", w.Code, w.Body.String())
	}
	if got := pipe.decodes.Load(); got != 2 {
		t.Fatalf("decodes = %d, want 2 (unique phrases)", got)
	}
	resp := decodeBatch(t, w)
	if resp.OK != 100 || resp.Rejected != 0 {
		t.Fatalf("roll-up = %+v", resp)
	}
	// warm batch: zero decodes, zero admission weight.
	before := pipe.decodes.Load()
	if w := do(t, s, http.MethodPost, "/annotate/batch", string(body)); w.Code != 200 {
		t.Fatalf("warm batch = %d", w.Code)
	}
	if got := pipe.decodes.Load(); got != before {
		t.Fatalf("warm batch decoded %d times", got-before)
	}
}

// TestHerdCoalescesToOneDecode is the acceptance drill: a herd of
// 1000 concurrent identical misses performs exactly one decode, with
// the memo off or on. The flight.leader fault holds the leader until
// every other request has joined as a waiter (fault-point counted, no
// sleeps), pinning true coalescing rather than serial cache hits.
func TestHerdCoalescesToOneDecode(t *testing.T) {
	for _, cacheEntries := range []int{0, 128} {
		t.Run(fmt.Sprintf("cache=%d", cacheEntries), func(t *testing.T) {
			defer faults.Reset()
			const herd = 1000
			pipe := &countingPipe{tag: "v1"}
			s := NewWithConfig(pipe, nil, Config{CacheEntries: cacheEntries})
			s.SetReady(true)

			release := make(chan struct{})
			faults.Enable(flight.FaultLeader, faults.Fault{OnHit: func(int) { <-release }})

			body := annotateBody("salt")
			codes := make(chan int, herd)
			bodies := make(chan string, herd)
			for i := 0; i < herd; i++ {
				go func() {
					w := do(t, s, http.MethodPost, "/annotate", body)
					codes <- w.Code
					bodies <- w.Body.String()
				}()
			}
			fkey := flightKey(1, "salt")
			waitUntil(t, func() bool { return s.flights.Waiters(fkey) == herd-1 })
			close(release)

			var first string
			for i := 0; i < herd; i++ {
				if code := <-codes; code != 200 {
					t.Fatalf("herd member = %d", code)
				}
				b := <-bodies
				if first == "" {
					first = b
				} else if b != first {
					t.Fatalf("herd bodies diverged:\n%s\nvs\n%s", first, b)
				}
			}
			if got := pipe.decodes.Load(); got != 1 {
				t.Fatalf("decodes = %d, want exactly 1", got)
			}
			if hits := faults.Hits(flight.FaultLeader); hits != 1 {
				t.Fatalf("flight.leader hits = %d, want 1 (one leader for the whole herd)", hits)
			}
		})
	}
}

// TestReloadDuringHerdNoStaleGenerationServed pins the
// reload-invalidation contract under load: a reload that lands while
// a herd's leader is still decoding with the old model bumps the
// generation atomically with the pipeline swap, so (a) the old
// leader's result is shared only with the herd that resolved the old
// state, (b) the very next request decodes fresh with the new model —
// the old generation's cache entry is never served again.
func TestReloadDuringHerdNoStaleGenerationServed(t *testing.T) {
	defer faults.Reset()
	const herd = 100
	v1 := &countingPipe{tag: "v1"}
	v2 := &countingPipe{tag: "v2"}
	s := NewWithConfig(v1, nil, Config{
		CacheEntries: 128,
		Loader:       func() (Pipeline, string, error) { return v2, "v2", nil },
		Canary:       canaryFor("v2"),
		ModelVersion: "v1",
	})
	s.SetReady(true)

	release := make(chan struct{})
	faults.Enable(flight.FaultLeader, faults.Fault{OnHit: func(int) { <-release }, Limit: 1})

	body := annotateBody("salt")
	bodies := make(chan string, herd)
	for i := 0; i < herd; i++ {
		go func() {
			w := do(t, s, http.MethodPost, "/annotate", body)
			if w.Code != 200 {
				t.Errorf("herd member = %d", w.Code)
			}
			bodies <- w.Body.String()
		}()
	}
	fkey := flightKey(1, "salt")
	waitUntil(t, func() bool { return s.flights.Waiters(fkey) == herd-1 })

	// reload mid-herd: the old leader is still "decoding".
	if version, err := s.Reload(); err != nil || version != "v2" {
		t.Fatalf("reload = (%q, %v)", version, err)
	}
	if gen := s.Generation(); gen != 2 {
		t.Fatalf("generation after reload = %d, want 2", gen)
	}
	close(release)

	// the held herd resolved the v1 state and must uniformly get v1.
	for i := 0; i < herd; i++ {
		b := <-bodies
		if !strings.Contains(b, `"v1:salt"`) {
			t.Fatalf("herd response not from v1: %s", b)
		}
	}
	// the old leader cached its result under generation 1; a fresh
	// request resolves generation 2 and must decode v2, never see it.
	w := do(t, s, http.MethodPost, "/annotate", body)
	if w.Code != 200 || !strings.Contains(w.Body.String(), `"v2:salt"`) {
		t.Fatalf("post-reload response = %d %s, want a v2 decode", w.Code, w.Body.String())
	}
	if got := v1.decodes.Load(); got != 1 {
		t.Fatalf("v1 decodes = %d, want 1", got)
	}
	// the reload canary decodes through the candidate too.
	wantV2 := int64(1 + len(canaryFor("v2")))
	if got := v2.decodes.Load(); got != wantV2 {
		t.Fatalf("v2 decodes = %d, want %d", got, wantV2)
	}
	// and the v2 answer is now the cached one.
	w = do(t, s, http.MethodPost, "/annotate", body)
	if !strings.Contains(w.Body.String(), `"v2:salt"`) || v2.decodes.Load() != wantV2 {
		t.Fatalf("warm post-reload response = %s (v2 decodes = %d)", w.Body.String(), v2.decodes.Load())
	}
}

// TestDegradedModeHitsServedMissesShed is the overload posture: with
// the limiter saturated by a slow decode, cache hits still answer
// (counted as degraded serves) while misses shed with 429 +
// Retry-After — and /readyz shows both counters moving.
func TestDegradedModeHitsServedMissesShed(t *testing.T) {
	gate := make(chan struct{})
	pipe := &countingPipe{tag: "v1", slow: gate}
	s := NewWithConfig(pipe, nil, Config{CacheEntries: 128, MaxInFlight: 1})
	s.SetReady(true)

	// warm the cache while the limiter is idle.
	if w := do(t, s, http.MethodPost, "/annotate", annotateBody("salt")); w.Code != 200 {
		t.Fatalf("warm-up = %d", w.Code)
	}

	// saturate: a slow decode occupies the only admission unit.
	slowDone := make(chan int, 1)
	go func() {
		w := do(t, s, http.MethodPost, "/annotate", annotateBody("slow:stew"))
		slowDone <- w.Code
	}()
	waitUntil(t, func() bool { return s.limiter.Saturated() })

	// hit: served despite saturation, zero admission weight.
	if w := do(t, s, http.MethodPost, "/annotate", annotateBody("salt")); w.Code != 200 {
		t.Fatalf("degraded hit = %d, want 200", w.Code)
	}
	// all-hit batch: also free.
	batch, _ := json.Marshal(map[string][]string{"phrases": {"salt", "salt", "salt"}})
	if w := do(t, s, http.MethodPost, "/annotate/batch", string(batch)); w.Code != 200 {
		t.Fatalf("degraded all-hit batch = %d, want 200", w.Code)
	}
	// miss: shed with the standard 429 + Retry-After.
	w := do(t, s, http.MethodPost, "/annotate", annotateBody("2 eggs"))
	if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") == "" {
		t.Fatalf("degraded miss = %d (Retry-After %q), want 429", w.Code, w.Header().Get("Retry-After"))
	}
	// batch with a cold phrase: its miss weight sheds too.
	coldBatch, _ := json.Marshal(map[string][]string{"phrases": {"salt", "1 tbsp butter"}})
	if w := do(t, s, http.MethodPost, "/annotate/batch", string(coldBatch)); w.Code != http.StatusTooManyRequests {
		t.Fatalf("degraded cold batch = %d, want 429", w.Code)
	}

	var ready readyResponse
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/readyz", "").Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Shed.Total != 2 {
		t.Fatalf("shed.total = %d, want 2", ready.Shed.Total)
	}
	if ready.Shed.DegradedHitsServed != 4 { // 1 single + 3 batch slots
		t.Fatalf("shed.degraded_hits_served = %d, want 4", ready.Shed.DegradedHitsServed)
	}

	close(gate)
	if code := <-slowDone; code != 200 {
		t.Fatalf("slow decode = %d", code)
	}
	if s.limiter.Saturated() {
		t.Fatal("limiter still saturated after release")
	}
}

// TestCacheFaultFallsBackToDecode: an injected cache.lookup failure
// degrades to decoding — correct answers, just slower — never to an
// error response.
func TestCacheFaultFallsBackToDecode(t *testing.T) {
	defer faults.Reset()
	pipe := &countingPipe{tag: "v1"}
	s := NewWithConfig(pipe, nil, Config{CacheEntries: 128})
	s.SetReady(true)
	if w := do(t, s, http.MethodPost, "/annotate", annotateBody("salt")); w.Code != 200 {
		t.Fatalf("warm-up = %d", w.Code)
	}
	faults.Enable(cache.FaultLookup, faults.Fault{Err: context.DeadlineExceeded})
	w := do(t, s, http.MethodPost, "/annotate", annotateBody("salt"))
	if w.Code != 200 || !strings.Contains(w.Body.String(), `"v1:salt"`) {
		t.Fatalf("response during cache fault = %d %s", w.Code, w.Body.String())
	}
	if got := pipe.decodes.Load(); got != 2 {
		t.Fatalf("decodes = %d, want 2 (fault forced a re-decode)", got)
	}
}
