package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"
	"testing"
	"time"

	"recipemodel/internal/core"
	"recipemodel/internal/faults"
	"recipemodel/internal/goldmodel"
	"recipemodel/internal/relations"
	"recipemodel/internal/snapshot"
)

// queryCorpusModels builds n recipe models with enough structural
// variety that similarity rankings are non-trivial and searches can
// select strict subsets.
func queryCorpusModels(n int) []*core.RecipeModel {
	names := []string{"onion", "garlic", "tomato", "chicken", "butter", "rice"}
	procs := []string{"chop", "fry", "boil", "bake"}
	cuisines := []string{"french", "indian", "thai"}
	out := make([]*core.RecipeModel, n)
	for i := range out {
		a, b := names[i%len(names)], names[(i+2)%len(names)]
		out[i] = &core.RecipeModel{
			Title:   fmt.Sprintf("recipe-%03d-%s", i, a),
			Cuisine: cuisines[i%len(cuisines)],
			Ingredients: []core.IngredientRecord{
				{Phrase: "2 cups " + a, Name: a, Quantity: "2", Unit: "cups"},
				{Phrase: "1 tsp " + b, Name: b, Quantity: "1", Unit: "tsp", State: "chopped"},
			},
			Instructions: []string{"Step one.", "Step two."},
			Events: []core.Event{
				{Step: 0, Relation: relations.Relation{Process: procs[i%len(procs)]}},
				{Step: 1, Relation: relations.Relation{Process: procs[(i+1)%len(procs)]}},
			},
		}
	}
	return out
}

func querySnapshot(version string, n int) *snapshot.Snapshot {
	return &snapshot.Snapshot{Version: version, Models: queryCorpusModels(n)}
}

// queryServer builds a server whose only interesting state is the
// sharded corpus.
func queryServer(shards, docs int) *Server {
	return NewWithConfig(fakePipe{}, nil, Config{
		CorpusSnapshot: querySnapshot("v000001", docs),
		CorpusShards:   shards,
	})
}

// envelope mirrors queryEnvelope with raw results, for assertions on
// exact result bytes.
type envelope struct {
	Snapshot     string          `json:"snapshot"`
	ShardsTotal  int             `json:"shards_total"`
	ShardsServed int             `json:"shards_served"`
	Degraded     bool            `json:"degraded"`
	FailedShards []int           `json:"failed_shards"`
	Results      json.RawMessage `json:"results"`
}

func decodeEnvelope(t *testing.T, body *bytes.Buffer) envelope {
	t.Helper()
	var env envelope
	if err := json.Unmarshal(body.Bytes(), &env); err != nil {
		t.Fatalf("bad envelope %q: %v", body.String(), err)
	}
	return env
}

func TestQuerySimilar(t *testing.T) {
	s := queryServer(4, 12)
	w := do(t, s, http.MethodPost, "/query/similar", `{"id": 0, "k": 3}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	env := decodeEnvelope(t, w.Body)
	if env.Snapshot != "v000001" || env.ShardsTotal != 4 || env.ShardsServed != 4 || env.Degraded {
		t.Fatalf("envelope %+v", env)
	}
	var hits []similarHit
	if err := json.Unmarshal(env.Results, &hits); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Fatalf("got %d hits, want 3", len(hits))
	}
	for i, h := range hits {
		if h.ID == 0 {
			t.Fatal("query doc ranked as its own neighbor")
		}
		if i > 0 && hits[i].Score > hits[i-1].Score {
			t.Fatalf("scores not descending: %+v", hits)
		}
		if h.Title == "" {
			t.Fatalf("hit %d has no title", i)
		}
	}
}

func TestQuerySimilarDefaultK(t *testing.T) {
	s := queryServer(3, 15)
	w := do(t, s, http.MethodPost, "/query/similar", `{"id": 7}`)
	env := decodeEnvelope(t, w.Body)
	var hits []similarHit
	if err := json.Unmarshal(env.Results, &hits); err != nil {
		t.Fatal(err)
	}
	if len(hits) != defaultSimilarK {
		t.Fatalf("default k served %d hits, want %d", len(hits), defaultSimilarK)
	}
}

func TestQuerySimilarValidation(t *testing.T) {
	s := queryServer(2, 6)
	for body, want := range map[string]int{
		`{}`:           http.StatusBadRequest,
		`{"id": -1}`:   http.StatusBadRequest,
		`{"id": 6}`:    http.StatusBadRequest,
		`{"id": junk}`: http.StatusBadRequest,
	} {
		if w := do(t, s, http.MethodPost, "/query/similar", body); w.Code != want {
			t.Errorf("%s: status %d, want %d", body, w.Code, want)
		}
	}
	if w := do(t, s, http.MethodGet, "/query/similar", ""); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d", w.Code)
	}
}

func TestQueryWithoutCorpus503(t *testing.T) {
	s := New(fakePipe{}, nil)
	for _, path := range []string{"/query/similar", "/query/search", "/query/nutrition"} {
		if w := do(t, s, http.MethodPost, path, `{}`); w.Code != http.StatusServiceUnavailable {
			t.Errorf("%s without corpus: status %d, want 503", path, w.Code)
		}
	}
}

func TestQuerySearch(t *testing.T) {
	s := queryServer(4, 12)
	w := do(t, s, http.MethodPost, "/query/search", `{"ingredients": ["onion"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	env := decodeEnvelope(t, w.Body)
	var hits []searchHit
	if err := json.Unmarshal(env.Results, &hits); err != nil {
		t.Fatal(err)
	}
	// "onion" is ingredient a of docs i≡0 (mod 6) and ingredient b of
	// docs i≡4 (mod 6): docs 0, 4, 6, 10 of the 12-doc corpus.
	want := []int{0, 4, 6, 10}
	if len(hits) != len(want) {
		t.Fatalf("hits %+v, want ids %v", hits, want)
	}
	for i, h := range hits {
		if h.ID != want[i] {
			t.Fatalf("hits %+v, want ids %v", hits, want)
		}
	}
}

func TestQuerySearchNoMatchIsEmptyList(t *testing.T) {
	s := queryServer(3, 9)
	w := do(t, s, http.MethodPost, "/query/search", `{"ingredients": ["durian"]}`)
	env := decodeEnvelope(t, w.Body)
	if string(env.Results) != "[]" {
		t.Fatalf("no-match results = %s, want []", env.Results)
	}
}

func TestQueryNutrition(t *testing.T) {
	s := queryServer(4, 12)
	w := do(t, s, http.MethodPost, "/query/nutrition", `{"ids": [5, 1, 1, 3]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	env := decodeEnvelope(t, w.Body)
	// Only the shards owning ids 1, 3, 5 are targeted (4-shard corpus:
	// shards 1 and 3), and untargeted shards do not count as failed.
	if env.Degraded || env.ShardsServed != 4 {
		t.Fatalf("envelope %+v", env)
	}
	var items []nutritionItem
	if err := json.Unmarshal(env.Results, &items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("%d items for deduplicated ids [1 3 5]", len(items))
	}
	for i, id := range []int{1, 3, 5} {
		if items[i].ID != id {
			t.Fatalf("item %d is id %d, want %d", i, items[i].ID, id)
		}
		if items[i].Nutrition.Ingredients != 2 {
			t.Fatalf("item %d profile covers %d ingredients, want 2", i, items[i].Nutrition.Ingredients)
		}
	}
}

func TestQueryNutritionValidation(t *testing.T) {
	s := queryServer(2, 4)
	for body, want := range map[string]int{
		`{}`:               http.StatusBadRequest,
		`{"ids": []}`:      http.StatusBadRequest,
		`{"ids": [0, 99]}`: http.StatusBadRequest,
		`{"id": -3}`:       http.StatusBadRequest,
		`{"id": 1}`:        http.StatusOK,
		`{"ids": [0,1,2]}`: http.StatusOK,
	} {
		if w := do(t, s, http.MethodPost, "/query/nutrition", body); w.Code != want {
			t.Errorf("%s: status %d, want %d", body, w.Code, want)
		}
	}
}

// TestQueryShardCountInvariance pins the oracle property the sharding
// relies on: the result bytes of every query endpoint are identical
// whatever the shard count, because doc ids are global, IDF weights
// are corpus-wide, and merges use a deterministic total order.
func TestQueryShardCountInvariance(t *testing.T) {
	const docs = 13
	queries := map[string]string{
		"/query/similar":   `{"id": 3, "k": 5}`,
		"/query/search":    `{"processes": ["fry"]}`,
		"/query/nutrition": `{"ids": [0, 5, 12]}`,
	}
	baseline := map[string]string{}
	serial := queryServer(1, docs)
	for path, body := range queries {
		env := decodeEnvelope(t, do(t, serial, http.MethodPost, path, body).Body)
		baseline[path] = string(env.Results)
	}
	for _, shards := range []int{2, 3, 4, docs, docs + 50} {
		s := queryServer(shards, docs)
		for path, body := range queries {
			env := decodeEnvelope(t, do(t, s, http.MethodPost, path, body).Body)
			if got := string(env.Results); got != baseline[path] {
				t.Errorf("%d shards, %s:\n  got  %s\n  want %s", shards, path, got, baseline[path])
			}
			if env.ShardsTotal > docs {
				t.Errorf("%d shards over %d docs left an empty shard: total %d", shards, docs, env.ShardsTotal)
			}
		}
	}
}

// TestReadyzCorpusBlock is the satellite-3 contract: /readyz reports
// the serving snapshot and shard health.
func TestReadyzCorpusBlock(t *testing.T) {
	s := queryServer(4, 12)
	s.SetReady(true)
	w := do(t, s, http.MethodGet, "/readyz", "")
	var resp readyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	c := resp.Corpus
	if !c.Enabled || c.Version != "v000001" || c.Docs != 12 || c.ShardsTotal != 4 || c.ShardsHealthy != 4 {
		t.Fatalf("corpus block %+v", c)
	}
	if c.DegradedQueriesServed != 0 {
		t.Fatalf("degraded counter %d before any query", c.DegradedQueriesServed)
	}

	bare := New(fakePipe{}, nil)
	bare.SetReady(true)
	w = do(t, bare, http.MethodGet, "/readyz", "")
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Corpus.Enabled || resp.Corpus.ShardsTotal != 0 {
		t.Fatalf("corpus block without corpus: %+v", resp.Corpus)
	}
}

func TestReloadCorpus(t *testing.T) {
	next := querySnapshot("v000002", 8)
	s := NewWithConfig(fakePipe{}, nil, Config{
		CorpusSnapshot: querySnapshot("v000001", 6),
		CorpusShards:   3,
		CorpusLoader:   func() (*snapshot.Snapshot, error) { return next, nil },
	})
	w := do(t, s, http.MethodPost, "/admin/reload/corpus", "")
	if w.Code != http.StatusOK {
		t.Fatalf("reload status %d: %s", w.Code, w.Body.String())
	}
	var resp map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["version"] != "v000002" || resp["docs"] != float64(8) {
		t.Fatalf("reload response %+v", resp)
	}
	env := decodeEnvelope(t, do(t, s, http.MethodPost, "/query/similar", `{"id": 0}`).Body)
	if env.Snapshot != "v000002" {
		t.Fatalf("post-reload query served snapshot %q", env.Snapshot)
	}
	s.SetReady(true)
	var ready readyResponse
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/readyz", "").Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Corpus.Reloads != 1 || ready.Corpus.Version != "v000002" {
		t.Fatalf("readyz after reload: %+v", ready.Corpus)
	}
}

// TestReloadCorpusRejected: a loader failure (torn snapshot, empty
// corpus) answers 422 and the previous snapshot keeps serving.
func TestReloadCorpusRejected(t *testing.T) {
	loadErr := errors.New("snapshot: seg-000000.jsonl: checksum mismatch")
	fail := true
	var empty *snapshot.Snapshot
	s := NewWithConfig(fakePipe{}, nil, Config{
		CorpusSnapshot: querySnapshot("v000001", 6),
		CorpusShards:   2,
		CorpusLoader: func() (*snapshot.Snapshot, error) {
			if fail {
				return nil, loadErr
			}
			return empty, nil
		},
	})
	w := do(t, s, http.MethodPost, "/admin/reload/corpus", "")
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("torn snapshot reload: status %d", w.Code)
	}
	var resp map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["serving"] != "v000001" {
		t.Fatalf("rejection payload %+v", resp)
	}
	fail = false // now the loader returns a nil snapshot
	if w := do(t, s, http.MethodPost, "/admin/reload/corpus", ""); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("empty snapshot reload: status %d", w.Code)
	}
	env := decodeEnvelope(t, do(t, s, http.MethodPost, "/query/similar", `{"id": 0}`).Body)
	if env.Snapshot != "v000001" || env.Degraded {
		t.Fatalf("previous snapshot not serving after rejections: %+v", env)
	}
	s.SetReady(true)
	var ready readyResponse
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/readyz", "").Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Corpus.RejectedReloads != 2 || ready.Corpus.Reloads != 0 {
		t.Fatalf("readyz after rejections: %+v", ready.Corpus)
	}
}

func TestReloadCorpusNotConfigured(t *testing.T) {
	s := queryServer(2, 4)
	if w := do(t, s, http.MethodPost, "/admin/reload/corpus", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
}

// TestQueryShardPanicContained: a panicking shard degrades the query
// to partial results over the survivors — 200, never a 500 — and stays
// out of subsequent queries until a reload rebuilds it.
func TestQueryShardPanicContained(t *testing.T) {
	s := queryServer(4, 12)
	disable := faults.Enable(FaultQueryShard, faults.Fault{PanicMsg: "shard corrupted", Indices: []int{2}})
	w := do(t, s, http.MethodPost, "/query/search", `{"processes": ["fry"]}`)
	disable()
	if w.Code != http.StatusOK {
		t.Fatalf("degraded query: status %d, want 200", w.Code)
	}
	env := decodeEnvelope(t, w.Body)
	if !env.Degraded || env.ShardsServed != 3 || len(env.FailedShards) != 1 || env.FailedShards[0] != 2 {
		t.Fatalf("envelope %+v", env)
	}
	// The fault is disarmed, but the shard stays unhealthy and skipped.
	env = decodeEnvelope(t, do(t, s, http.MethodPost, "/query/search", `{"processes": ["fry"]}`).Body)
	if !env.Degraded || env.ShardsServed != 3 {
		t.Fatalf("unhealthy shard served again: %+v", env)
	}
	s.SetReady(true)
	var ready readyResponse
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/readyz", "").Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Corpus.ShardsHealthy != 3 || ready.Corpus.DegradedQueriesServed != 2 {
		t.Fatalf("readyz after shard death: %+v", ready.Corpus)
	}
}

// TestQueryShardBudget: a shard that stalls past the per-shard budget
// is skipped (partial results) and marked unhealthy. The stall is a
// channel gate, not a sleep; only the budget timer itself elapses.
func TestQueryShardBudget(t *testing.T) {
	s := NewWithConfig(fakePipe{}, nil, Config{
		CorpusSnapshot:   querySnapshot("v000001", 8),
		CorpusShards:     2,
		QueryShardBudget: 10 * time.Millisecond,
	})
	gate := make(chan struct{})
	disable := faults.Enable(FaultQueryShard, faults.Fault{
		Indices: []int{1},
		OnHit:   func(int) { <-gate },
	})
	defer disable()
	w := do(t, s, http.MethodPost, "/query/similar", `{"id": 0, "k": 3}`)
	close(gate)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	env := decodeEnvelope(t, w.Body)
	if !env.Degraded || env.ShardsServed != 1 || len(env.FailedShards) != 1 || env.FailedShards[0] != 1 {
		t.Fatalf("envelope %+v", env)
	}
	s.SetReady(true)
	var ready readyResponse
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/readyz", "").Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Corpus.ShardsHealthy != 1 {
		t.Fatalf("slow shard not marked unhealthy: %+v", ready.Corpus)
	}
}

// TestReloadCorpusRestoresShardHealth: a snapshot reload rebuilds the
// shards, clearing unhealthy marks. The second reload hands back the
// serving models under a new version, as an unchanged snapshot store
// does: the shards are rebound to the serving read state instead of
// rebuilt, and must answer exactly as a rebuild would.
func TestReloadCorpusRestoresShardHealth(t *testing.T) {
	v2 := querySnapshot("v000002", 8)
	v3 := &snapshot.Snapshot{Version: "v000003", Models: v2.Models}
	var next *snapshot.Snapshot
	s := NewWithConfig(fakePipe{}, nil, Config{
		CorpusSnapshot: querySnapshot("v000001", 8),
		CorpusShards:   4,
		CorpusLoader:   func() (*snapshot.Snapshot, error) { return next, nil },
	})
	queries := map[string]string{
		"/query/similar":   `{"id": 3, "k": 5}`,
		"/query/search":    `{"cuisine": "thai"}`,
		"/query/nutrition": `{"ids": [0, 1, 2, 7]}`,
	}
	for _, snap := range []*snapshot.Snapshot{v2, v3} {
		next = snap
		disable := faults.Enable(FaultQueryShard, faults.Fault{Err: errors.New("injected"), Indices: []int{0}})
		env := decodeEnvelope(t, do(t, s, http.MethodPost, "/query/search", `{"cuisine": "thai"}`).Body)
		disable()
		if !env.Degraded {
			t.Fatalf("fault did not degrade: %+v", env)
		}
		before := s.loadCorpus()
		if w := do(t, s, http.MethodPost, "/admin/reload/corpus", ""); w.Code != http.StatusOK {
			t.Fatalf("reload status %d", w.Code)
		}
		if shared := s.loadCorpus().weights == before.weights; shared != (snap == v3) {
			t.Fatalf("reload to %s shared the serving read state: %v", snap.Version, shared)
		}
		env = decodeEnvelope(t, do(t, s, http.MethodPost, "/query/search", `{"cuisine": "thai"}`).Body)
		if env.Degraded || env.ShardsServed != 4 || env.Snapshot != snap.Version {
			t.Fatalf("post-reload envelope %+v", env)
		}
		oracle := NewWithConfig(fakePipe{}, nil, Config{CorpusSnapshot: snap, CorpusShards: 4})
		for path, body := range queries {
			got := do(t, s, http.MethodPost, path, body).Body.String()
			if want := do(t, oracle, http.MethodPost, path, body).Body.String(); got != want {
				t.Fatalf("%s after reload to %s:\n  got  %s\n  want %s", path, snap.Version, got, want)
			}
		}
	}
}

// TestReloadCorpusBuildPanicKeepsServing: a panic inside the corpus
// build, here a nil model, unwinds the reload handler like any handler
// panic: 500 from the recover middleware, the old corpus keeps serving,
// and corpusMu is released, so the next reload installs its snapshot.
// The logged panic names the task and the frame that faulted, not only
// the re-raise in runTasks.
func TestReloadCorpusBuildPanicKeepsServing(t *testing.T) {
	bad := querySnapshot("v000002", 40)
	bad.Models[17] = nil
	next := []*snapshot.Snapshot{bad, querySnapshot("v000003", 40)}
	var logs bytes.Buffer
	s := NewWithConfig(fakePipe{}, nil, Config{
		CorpusSnapshot: querySnapshot("v000001", 40),
		CorpusShards:   4,
		CorpusLoader: func() (*snapshot.Snapshot, error) {
			snap := next[0]
			next = next[1:]
			return snap, nil
		},
		Logger: log.New(&logs, "", 0),
	})
	w := do(t, s, http.MethodPost, "/admin/reload/corpus", "")
	if w.Code != http.StatusInternalServerError || w.Body.String() != `{"error":"internal server error"}`+"\n" {
		t.Fatalf("reload of a nil model: status %d, body %q", w.Code, w.Body.String())
	}
	if got := s.CorpusVersion(); got != "v000001" {
		t.Fatalf("after the panicking reload the server serves %q, want v000001", got)
	}
	// Task 0, LearnWeights, is the lowest-index task the nil model
	// faults; shard 1's index.New faults on it too.
	for _, want := range []string{"corpus build task 0 panicked", "similarity.LearnWeights("} {
		if !strings.Contains(logs.String(), want) {
			t.Fatalf("the logged panic does not name %q:\n%s", want, logs.String())
		}
	}
	w = do(t, s, http.MethodPost, "/admin/reload/corpus", "")
	if w.Code != http.StatusOK {
		t.Fatalf("reload after the panic: status %d: %s", w.Code, w.Body.String())
	}
	if got := s.CorpusVersion(); got != "v000003" {
		t.Fatalf("after the good reload the server serves %q, want v000003", got)
	}
}

// benchCorpus keeps BenchmarkNewCorpusState's result live.
var benchCorpus *corpusState

// BenchmarkNewCorpusState builds the serving corpus of a 5,000-doc
// gold snapshot over the default 4 shards: the corpus weights, and
// each shard's index and nutrition profiles.
func BenchmarkNewCorpusState(b *testing.B) {
	snap := &snapshot.Snapshot{Version: "v000001", Models: goldmodel.Corpus(2500, 1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCorpus = newCorpusState(snap, 4)
	}
}
