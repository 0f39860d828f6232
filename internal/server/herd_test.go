package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"recipemodel/internal/faults"
	"recipemodel/internal/flight"
)

// chaosRequest is one replayable request of the drill mix.
type chaosRequest struct {
	path string
	body string
}

// chaosMix builds the deterministic duplicated-phrase herd the drill
// replays: a few hot phrases dominating (the heavy tail), canonical-
// key byte variants, quarantine poisons, and every eighth request a
// batch that itself duplicates a hot phrase. Pure index arithmetic —
// the same mix every run on every box.
func chaosMix() []chaosRequest {
	phrases := []string{
		"salt", "2 cups onion", "salt", "1 tbsp butter",
		"salt", "2 cups onion", "2 eggs", "salt",
		"2 cups\u00a0onion",  // NBSP variant of the hot phrase
		"   ",                // empty_after_clean rejection
		"salt", "panic:boom", // contained tagger panic rejection
	}
	reqs := make([]chaosRequest, 0, 128)
	for i := 0; i < 120; i++ {
		if i%8 == 7 {
			batch := []string{"salt", phrases[i%len(phrases)], "salt", "2 eggs"}
			b, _ := json.Marshal(map[string][]string{"phrases": batch})
			reqs = append(reqs, chaosRequest{path: "/annotate/batch", body: string(b)})
			continue
		}
		reqs = append(reqs, chaosRequest{path: "/annotate", body: annotateBody(phrases[i%len(phrases)])})
	}
	return reqs
}

// chaosResult is the (status, body) pair compared against the oracle.
type chaosResult struct {
	code int
	body string
}

// replay serves every request in reqs on h with the given worker
// count, workers pulling the next index from a shared counter, and
// returns the per-index results.
func replay(t *testing.T, h http.Handler, reqs []chaosRequest, workers int) []chaosResult {
	t.Helper()
	got := make([]chaosResult, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				rec := do(t, h, http.MethodPost, reqs[i].path, reqs[i].body)
				got[i] = chaosResult{code: rec.Code, body: rec.Body.String()}
			}
		}()
	}
	wg.Wait()
	return got
}

// TestHerdChaos is the `make herd-test` drill: the duplicated-phrase
// herd is replayed with the memo off and on, under worker counts 1
// and 4 and under deterministic disruptions — a hot reload landing
// mid-herd (fired from inside the 10th flight leader, after it has
// resolved the old generation; no sleeps) and a flight leader killed
// mid-decode — and every response must be byte-identical to the
// serial oracle answering the same mix. The only tolerated divergence
// is the killed leader's own 500, and exactly as many of those as the
// fault fired.
func TestHerdChaos(t *testing.T) {
	reqs := chaosMix()
	oracle := serialOracleAll(t, "v1", reqs)
	for _, workers := range []int{1, 4} {
		for _, disruption := range []string{"none", "reload", "leaderpanic"} {
			t.Run(fmt.Sprintf("workers=%d,disruption=%s", workers, disruption), func(t *testing.T) {
				for _, cacheEntries := range []int{0, 256} {
					t.Run(fmt.Sprintf("cache=%d", cacheEntries), func(t *testing.T) {
						herdChaos(t, reqs, oracle, workers, disruption, cacheEntries)
					})
				}
			})
		}
	}
}

// herdChaos is one TestHerdChaos replay.
func herdChaos(t *testing.T, reqs []chaosRequest, oracle []chaosResult, workers int, disruption string, cacheEntries int) {
	defer faults.Reset()
	cfg := Config{CacheEntries: cacheEntries, Logger: log.New(io.Discard, "", 0)}
	if disruption == "reload" {
		// The candidate decodes identically (same tag): the reload
		// drills generation invalidation, and byte-identity must hold
		// straight through it.
		cfg.Loader = func() (Pipeline, string, error) {
			return &countingPipe{tag: "v1"}, "v1-rebuilt", nil
		}
		cfg.Canary = canaryFor("v1")
	}
	s := NewWithConfig(&countingPipe{tag: "v1"}, nil, cfg)
	s.SetReady(true)

	switch disruption {
	case "reload":
		// Fire the reload from inside the herd: the 10th flight leader
		// pulls the trigger after resolving the old generation,
		// wherever in the request stream that lands.
		faults.Enable(flight.FaultLeader, faults.Fault{
			Skip:  9,
			Limit: 1,
			OnHit: func(int) {
				if _, err := s.Reload(); err != nil {
					t.Errorf("mid-herd reload: %v", err)
				}
			},
		})
	case "leaderpanic":
		faults.Enable(flight.FaultLeader, faults.Fault{
			PanicMsg: "chaos: leader killed mid-decode",
			Limit:    1,
		})
	}

	got := replay(t, s, reqs, workers)

	panics := 0
	for i, g := range got {
		if disruption == "leaderpanic" && g.code == http.StatusInternalServerError {
			if g.body != `{"error":"internal server error"}`+"\n" {
				t.Fatalf("request %d: killed leader produced %q", i, g.body)
			}
			panics++
			continue
		}
		if g != oracle[i] {
			t.Fatalf("request %d (%s %.40s): got (%d, %s), oracle (%d, %s)",
				i, reqs[i].path, reqs[i].body, g.code, g.body, oracle[i].code, oracle[i].body)
		}
	}
	switch disruption {
	case "leaderpanic":
		if fired := faults.Fired(flight.FaultLeader); panics != fired {
			t.Fatalf("%d panic responses, fault fired %d times", panics, fired)
		}
		if panics == 0 {
			t.Fatal("leader-kill fault never fired (mix has no miss?)")
		}
	case "reload":
		if fired := faults.Fired(flight.FaultLeader); fired != 1 {
			t.Fatalf("reload trigger fired %d times, want 1", fired)
		}
		if gen := s.Generation(); gen != 2 {
			t.Fatalf("generation after mid-herd reload = %d, want 2", gen)
		}
		if got, want := s.ModelVersion(), "v1-rebuilt"; got != want {
			t.Fatalf("model version = %q, want %q", got, want)
		}
	}
}
