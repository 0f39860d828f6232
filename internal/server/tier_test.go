package server

// The `make tier-test` drills for the degradation ladder (DESIGN §15):
// the differential byte-identity contract (a tier-configured server
// with routing off answers exactly like the serial oracle), the
// trip→degrade→recover chaos drill (CRF tier dead: zero 5xx, every
// miss answers 200 tier:"rules", breaker recovers on a fake clock —
// no sleeps anywhere), and the smaller ladder rungs: saturated misses
// degrading instead of shedding, healthy-mode routing, mixed-batch
// fallback, canary-rejected reloads feeding the breaker, the
// cross-tier agreement audit, and the /readyz tiers block.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recipemodel/internal/breaker"
	"recipemodel/internal/core"
	"recipemodel/internal/quarantine"
	"recipemodel/internal/rules"
)

// tierClock is the injected breaker clock: no request ever waits on
// wall time, recovery is driven by explicit Advance calls.
type tierClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *tierClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *tierClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// switchPipe is a countingPipe with a kill switch: while dead, every
// decode fails as a contained tagger panic — the "CRF tier is down"
// chaos prop.
type switchPipe struct {
	countingPipe
	dead atomic.Bool
}

func (p *switchPipe) AnnotateIngredientChecked(phrase string) (core.IngredientRecord, error) {
	if p.dead.Load() {
		return core.IngredientRecord{Phrase: phrase}, quarantine.ErrTaggerPanic
	}
	return p.countingPipe.AnnotateIngredientChecked(phrase)
}

func (p *switchPipe) AnnotateIngredientsPartial(ctx context.Context, phrases []string) ([]core.IngredientRecord, []quarantine.Rejection, error) {
	if p.dead.Load() {
		recs := make([]core.IngredientRecord, len(phrases))
		rejs := make([]quarantine.Rejection, 0, len(phrases))
		for i, ph := range phrases {
			rejs = append(rejs, quarantine.Reject(i, ph, quarantine.ErrTaggerPanic))
		}
		return recs, rejs, nil
	}
	return p.countingPipe.AnnotateIngredientsPartial(ctx, phrases)
}

// tierChaosMix is chaosMix without the panic-class phrases: contained
// pipeline panics intentionally diverge between a tiered server and
// the serial oracle (200 tier:"rules" beats a 422), so the
// byte-identity contract is stated over everything else — hot
// duplicates, canonical variants, input poison, and batches.
func tierChaosMix() []chaosRequest {
	reqs := chaosMix()
	out := reqs[:0]
	for _, r := range reqs {
		if strings.Contains(r.body, "panic:") {
			continue
		}
		out = append(out, r)
	}
	return out
}

// TestTierDifferential pins the acceptance contract: with a rules
// tier and breaker configured but routing off and the breaker closed,
// every annotation response — single, batch, hit, miss, rejection —
// is byte-identical to the serial oracle's, cached or not, serial or
// concurrent. The ladder must cost nothing until it is needed.
func TestTierDifferential(t *testing.T) {
	reqs := tierChaosMix()
	quiet := log.New(io.Discard, "", 0)
	oracle := serialOracleAll(t, "v1", reqs)

	for _, cacheEntries := range []int{0, 256} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("cache=%d,workers=%d", cacheEntries, workers), func(t *testing.T) {
				s := NewWithConfig(&countingPipe{tag: "v1"}, nil, Config{
					Logger:       quiet,
					CacheEntries: cacheEntries,
					Rules:        rules.New(),
				})
				s.SetReady(true)
				got := replay(t, s, reqs, workers)
				for i := range got {
					if got[i] != oracle[i] {
						t.Fatalf("request %d (%s %s) diverged from the serial oracle:\ntier:   %d %s\noracle: %d %s",
							i, reqs[i].path, reqs[i].body,
							got[i].code, got[i].body, oracle[i].code, oracle[i].body)
					}
				}
				st := s.tierStatusNow()
				if st.RulesRouted != 0 || st.RulesDegradedServed != 0 {
					t.Fatalf("rules tier served traffic on a healthy run: %+v", st)
				}
				if st.Breaker.State != "closed" || st.Breaker.Trips != 0 {
					t.Fatalf("breaker moved on a healthy run: %+v", st.Breaker)
				}
			})
		}
	}
}

// TestTierChaosDrill is the trip→degrade→recover acceptance drill:
// the CRF tier is switched dead, a burst of uncached phrases arrives,
// and not one answers 5xx or 429 — every one is 200 tier:"rules" (or
// a cache hit for the pre-warmed hot phrase). The breaker trips on
// the failure window, then the tier heals, the injected clock jumps
// past the open interval, and CloseAfter probe successes close the
// breaker — after which responses are byte-identical to the serial
// oracle. No time.Sleep anywhere.
func TestTierChaosDrill(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	clk := &tierClock{now: time.Unix(1000, 0)}
	pipe := &switchPipe{countingPipe: countingPipe{tag: "v1"}}
	const closeAfter = 2
	s := NewWithConfig(pipe, nil, Config{
		Logger:       quiet,
		CacheEntries: 128,
		Rules:        rules.New(),
		Breaker: breaker.Config{
			Window:      8,
			FailureRate: 0.5,
			MinSamples:  2,
			OpenTimeout: time.Second,
			MaxProbes:   1,
			CloseAfter:  closeAfter,
			Clock:       clk.Now,
		},
	})
	s.SetReady(true)

	// Warm the hot phrase while healthy: during the outage it must
	// keep answering as a plain cache hit.
	if w := do(t, s, http.MethodPost, "/annotate", annotateBody("salt")); w.Code != 200 {
		t.Fatalf("warm-up = %d", w.Code)
	}

	pipe.dead.Store(true)
	for i := 0; i < 40; i++ {
		phrase := fmt.Sprintf("outage miss %d", i)
		w := do(t, s, http.MethodPost, "/annotate", annotateBody(phrase))
		if w.Code != 200 {
			t.Fatalf("outage request %d = %d (never-500 broken): %s", i, w.Code, w.Body.String())
		}
		var resp tierRecord
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("outage request %d: %v", i, err)
		}
		if !resp.Degraded || resp.Tier != "rules" || resp.Phrase != phrase {
			t.Fatalf("outage request %d not served by the rules tier: %s", i, w.Body.String())
		}
	}
	// The pre-warmed hot phrase still answers plainly from the cache.
	if w := do(t, s, http.MethodPost, "/annotate", annotateBody("salt")); w.Code != 200 || strings.Contains(w.Body.String(), "degraded") {
		t.Fatalf("cached hot phrase during outage = %d %s", w.Code, w.Body.String())
	}
	// Batches degrade whole: every slot 200-equivalent, envelope marked.
	b, _ := json.Marshal(map[string][]string{"phrases": {"2 eggs", "1 tbsp butter"}})
	if w := do(t, s, http.MethodPost, "/annotate/batch", string(b)); w.Code != 200 {
		t.Fatalf("outage batch = %d %s", w.Code, w.Body.String())
	} else if resp := decodeBatch(t, w); !resp.Degraded || resp.Tier != "rules" || resp.OK != 2 {
		t.Fatalf("outage batch envelope = %+v", resp)
	}
	st := s.tierStatusNow()
	if st.Breaker.State != "open" || st.Breaker.Trips == 0 {
		t.Fatalf("breaker did not trip during the outage: %+v", st.Breaker)
	}
	if st.RulesDegradedServed == 0 {
		t.Fatalf("no degraded serves counted: %+v", st)
	}

	// Input poison during the outage still rejects 422, identically to
	// a CRF decode (both tiers sanitize alike).
	poison := chaosRequest{path: "/annotate", body: annotateBody("   ")}
	wOut := do(t, s, http.MethodPost, poison.path, poison.body)
	wOracle := serialOracle(t, "v1", poison)
	if wOut.Code != 422 || wOut.Code != wOracle.code || wOut.Body.String() != wOracle.body {
		t.Fatalf("poison during outage diverged: %d %s vs %d %s",
			wOut.Code, wOut.Body.String(), wOracle.code, wOracle.body)
	}

	// Heal and advance past the open interval: the next requests are
	// the half-open probes, decoded on the CRF tier, and closeAfter
	// successes close the breaker — the whole recovery inside the
	// configured probe budget, no wall clock involved.
	pipe.dead.Store(false)
	clk.Advance(time.Second)
	for i := 0; i < closeAfter; i++ {
		phrase := fmt.Sprintf("probe %d", i)
		w := do(t, s, http.MethodPost, "/annotate", annotateBody(phrase))
		if w.Code != 200 || strings.Contains(w.Body.String(), "degraded") {
			t.Fatalf("probe %d = %d %s", i, w.Code, w.Body.String())
		}
	}
	st = s.tierStatusNow()
	if st.Breaker.State != "closed" || st.Breaker.Closes == 0 {
		t.Fatalf("breaker did not recover within the probe budget: %+v", st.Breaker)
	}
	// Post-recovery: byte-identical to the serial oracle.
	fresh := chaosRequest{path: "/annotate", body: annotateBody("fresh after recovery")}
	got := do(t, s, http.MethodPost, fresh.path, fresh.body)
	want := serialOracle(t, "v1", fresh)
	if got.Code != want.code || got.Body.String() != want.body {
		t.Fatalf("post-recovery diverged:\ngot:  %d %s\nwant: %d %s",
			got.Code, got.Body.String(), want.code, want.body)
	}
}

// TestTierSaturatedMissServesRules: the third ladder rung — a miss
// the limiter cannot admit answers from the rules tier (no admission
// needed) instead of shedding 429. Gated on a blocked slow decode, no
// sleeps.
func TestTierSaturatedMissServesRules(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	pipe := &countingPipe{tag: "v1", slow: make(chan struct{})}
	s := NewWithConfig(pipe, nil, Config{
		Logger:       quiet,
		CacheEntries: 128,
		MaxInFlight:  1,
		Rules:        rules.New(),
	})
	s.SetReady(true)

	held := make(chan *httptest.ResponseRecorder, 1)
	go func() { held <- do(t, s, http.MethodPost, "/annotate", annotateBody("slow: stew")) }()
	waitUntil(t, func() bool { return s.limiter.Saturated() })

	w := do(t, s, http.MethodPost, "/annotate", annotateBody("2 cups onion"))
	if w.Code != 200 {
		t.Fatalf("saturated miss = %d, want 200 from the rules tier: %s", w.Code, w.Body.String())
	}
	var resp tierRecord
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.Tier != "rules" || resp.Name != "onion" {
		t.Fatalf("saturated miss payload = %s", w.Body.String())
	}
	close(pipe.slow)
	if first := <-held; first.Code != 200 {
		t.Fatalf("held decode = %d", first.Code)
	}
	if st := s.tierStatusNow(); st.Breaker.State != "closed" {
		t.Fatalf("saturation must not move the breaker: %+v", st.Breaker)
	}
}

// TestTierRoutesHealthy: with -rules-route on, a phrase the rules
// tier annotates confidently short-circuits past the CRF decode
// entirely (plain envelope, no degradation markers); an unconfident
// phrase falls through to the CRF tier.
func TestTierRoutesHealthy(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	pipe := &countingPipe{tag: "crf"}
	s := NewWithConfig(pipe, nil, Config{
		Logger:         quiet,
		Rules:          rules.New(),
		RulesRoute:     true,
		RulesThreshold: 0.9,
	})
	s.SetReady(true)

	w := do(t, s, http.MethodPost, "/annotate", annotateBody("2 cups onion"))
	if w.Code != 200 {
		t.Fatalf("routed = %d", w.Code)
	}
	var rec core.IngredientRecord
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Name != "onion" || rec.Unit != "cups" || rec.Phrase != "2 cups onion" {
		t.Fatalf("routed record = %+v, want the rules tier's", rec)
	}
	if strings.Contains(w.Body.String(), "degraded") {
		t.Fatalf("routed response carries degradation markers: %s", w.Body.String())
	}
	if got := pipe.decodes.Load(); got != 0 {
		t.Fatalf("routing still decoded %d times on the CRF tier", got)
	}

	// Unknown words: confidence 0 < threshold, falls through to CRF.
	w = do(t, s, http.MethodPost, "/annotate", annotateBody("glorbified zork"))
	if w.Code != 200 || !strings.Contains(w.Body.String(), "crf:") {
		t.Fatalf("unconfident phrase = %d %s, want a CRF decode", w.Code, w.Body.String())
	}
	st := s.tierStatusNow()
	if st.RulesRouted != 1 || st.CRFServed != 1 {
		t.Fatalf("tier counters = %+v, want 1 routed / 1 crf", st)
	}
}

// TestTierBatchMixedFallback: in a single batch, a CRF-panicking slot
// re-serves on the rules tier (tier-marked), input poison stays one
// 422 item counted once on /readyz, and healthy slots keep their CRF
// records — the envelope is marked degraded, status follows the usual
// 207 math. Cache off and on run the same ladder and must agree.
func TestTierBatchMixedFallback(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	for _, cacheEntries := range []int{0, 256} {
		for _, tc := range []struct {
			phrases              []string
			ok                   int
			onionSlot, panicSlot int // healthy / CRF-panicking phrase (-1: none)
		}{
			{phrases: []string{"2 cups onion", "panic:boom", "   "}, ok: 2, onionSlot: 0, panicSlot: 1},
			{phrases: []string{"panic:boom", "   "}, ok: 1, onionSlot: -1, panicSlot: 0},
		} {
			t.Run(fmt.Sprintf("cache=%d,phrases=%d", cacheEntries, len(tc.phrases)), func(t *testing.T) {
				s := NewWithConfig(fakePipe{}, nil, Config{Logger: quiet, Rules: rules.New(), CacheEntries: cacheEntries})
				s.SetReady(true)

				b, _ := json.Marshal(map[string][]string{"phrases": tc.phrases})
				w := do(t, s, http.MethodPost, "/annotate/batch", string(b))
				if w.Code != http.StatusMultiStatus {
					t.Fatalf("mixed batch = %d, want 207: %s", w.Code, w.Body.String())
				}
				resp := decodeBatch(t, w)
				if !resp.Degraded || resp.Tier != "rules" || resp.OK != tc.ok || resp.Rejected != 1 {
					t.Fatalf("envelope = %+v, want ok %d rejected 1", resp, tc.ok)
				}
				if tc.onionSlot >= 0 {
					if r := resp.Results[tc.onionSlot]; r.Status != "ok" || r.Tier != "" || r.Record.Name != "onion" {
						t.Fatalf("healthy slot = %+v", r)
					}
				}
				if r := resp.Results[tc.panicSlot]; r.Status != "ok" || r.Tier != "rules" || r.Record.Phrase != "panic:boom" {
					t.Fatalf("panic slot = %+v", r)
				}
				if r := resp.Results[len(tc.phrases)-1]; r.Status != "rejected" || r.Code != quarantine.CodeEmptyAfterClean {
					t.Fatalf("poison slot = %+v", r)
				}

				var ready readyResponse
				if err := json.Unmarshal(do(t, s, http.MethodGet, "/readyz", "").Body.Bytes(), &ready); err != nil {
					t.Fatal(err)
				}
				if ready.Quarantined != 1 || ready.QuarantinedByCode[quarantine.CodeEmptyAfterClean] != 1 {
					t.Fatalf("quarantined = %d %v, want the poison slot counted once", ready.Quarantined, ready.QuarantinedByCode)
				}
			})
		}
	}
}

// TestTierAgreementAudit: with AgreementSample 2, every second CRF
// decode is re-annotated by the rules tier. The stub's "v1:"-prefixed
// names always disagree with the rules tier, so each sampled phrase
// the rules tier covers confidently is one disagreement, counted on
// /readyz and logged once. An unconfident phrase is never counted as
// sampled, even on a due tick, and a cache hit adds no tick: audits
// run once per decode, in the flight leader.
func TestTierAgreementAudit(t *testing.T) {
	var logBuf bytes.Buffer
	pipe := &countingPipe{tag: "v1"}
	s := NewWithConfig(pipe, nil, Config{
		Logger:          log.New(&logBuf, "", 0),
		CacheEntries:    128,
		Rules:           rules.New(),
		AgreementSample: 2,
	})
	s.SetReady(true)
	audit := func(phrase string) tierStatus {
		t.Helper()
		if w := do(t, s, http.MethodPost, "/annotate", annotateBody(phrase)); w.Code != 200 {
			t.Fatalf("annotate %q = %d %s", phrase, w.Code, w.Body.String())
		}
		var ready readyResponse
		if err := json.Unmarshal(do(t, s, http.MethodGet, "/readyz", "").Body.Bytes(), &ready); err != nil {
			t.Fatal(err)
		}
		return ready.Tiers
	}
	for _, step := range []struct {
		phrase                 string
		sampled, disagreements int64
	}{
		{"2 cups onion", 0, 0},    // tick 1
		{"1 tbsp butter", 1, 1},   // tick 2: sampled
		{"2 cups onion", 1, 1},    // cache hit: no tick
		{"2 eggs", 1, 1},          // tick 3 (a due 4 had the hit ticked)
		{"1 tsp salt", 2, 2},      // tick 4: sampled
		{"wibbly wobble", 2, 2},   // tick 5
		{"glorbified zork", 2, 2}, // tick 6: due, but confidence 0
	} {
		st := audit(step.phrase)
		if st.AgreementSampled != step.sampled || st.Disagreements != step.disagreements {
			t.Fatalf("after %q: sampled %d disagreements %d, want %d and %d",
				step.phrase, st.AgreementSampled, st.Disagreements, step.sampled, step.disagreements)
		}
	}
	if got := pipe.decodes.Load(); got != 6 {
		t.Fatalf("decodes = %d, want 6 (one per distinct phrase)", got)
	}
	if got := strings.Count(logBuf.String(), "tier disagreement"); got != 2 {
		t.Fatalf("logged %d disagreements, want 2:\n%s", got, logBuf.String())
	}
}

// TestTierReloadFailureFeedsBreaker: a canary-rejected (or unloadable)
// reload is CRF-tier evidence — it lands one failure outcome in the
// breaker window.
func TestTierReloadFailureFeedsBreaker(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	s := NewWithConfig(&countingPipe{tag: "v1"}, nil, Config{
		Logger: quiet,
		Rules:  rules.New(),
		Loader: func() (Pipeline, string, error) { return nil, "", errors.New("bundle corrupt") },
	})
	s.SetReady(true)
	if _, err := s.Reload(); err == nil {
		t.Fatal("reload unexpectedly succeeded")
	}
	st := s.tierStatusNow().Breaker
	if st.Samples != 1 || st.Failures != 1 {
		t.Fatalf("breaker window after rejected reload = %+v, want 1 failure sample", st)
	}
}

// TestTierReadyz: the /readyz tiers block reports posture — enabled
// with breaker state when configured, disabled (closed, empty) when
// not — without disturbing the rest of the payload.
func TestTierReadyz(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	s := NewWithConfig(fakePipe{}, nil, Config{Logger: quiet, Rules: rules.New(), RulesRoute: true})
	s.SetReady(true)
	w := do(t, s, http.MethodGet, "/readyz", "")
	if w.Code != 200 {
		t.Fatalf("readyz = %d", w.Code)
	}
	var resp readyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Tiers.Enabled || !resp.Tiers.RouteEnabled || resp.Tiers.Breaker.State != "closed" {
		t.Fatalf("tiers block = %+v", resp.Tiers)
	}

	plain := New(fakePipe{}, nil)
	plain.SetReady(true)
	w = do(t, plain, http.MethodGet, "/readyz", "")
	var presp readyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &presp); err != nil {
		t.Fatal(err)
	}
	if presp.Tiers.Enabled || presp.Tiers.Breaker.State != "closed" {
		t.Fatalf("plain tiers block = %+v", presp.Tiers)
	}
}
