package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"recipemodel/internal/core"
	"recipemodel/internal/faults"
	"recipemodel/internal/index"
	"recipemodel/internal/ner"
	"recipemodel/internal/quarantine"
	"recipemodel/internal/relations"
)

// fakePipe is a deterministic Pipeline stub so server tests don't pay
// training cost; the real pipeline is covered by the integration test
// in cmd/recipeserver. A non-nil gate makes every annotation block
// until the channel closes — the deterministic "slow request" used by
// the shedding and deadline tests.
type fakePipe struct {
	gate chan struct{}
	// entered, when non-nil, receives one (non-blocking) signal each
	// time a gated annotation reaches the pipe — i.e. after the
	// limiter admitted the request. Tests wait on it instead of
	// sleep-polling the in-flight gauge.
	entered chan struct{}
}

func (f fakePipe) wait(ctx context.Context) error {
	if f.gate == nil {
		return nil
	}
	if f.entered != nil {
		select {
		case f.entered <- struct{}{}:
		default:
		}
	}
	select {
	case <-f.gate:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// poison classifies the stub's rejection behavior: whitespace-only
// phrases reject as empty_after_clean, a "panic:" prefix as a contained
// tagger panic — enough taxonomy to exercise both handler paths.
func poison(phrase string) error {
	switch {
	case strings.TrimSpace(phrase) == "":
		return quarantine.ErrEmptyAfterClean
	case strings.HasPrefix(phrase, "panic:"):
		return quarantine.ErrTaggerPanic
	}
	return nil
}

func (f fakePipe) AnnotateIngredientChecked(phrase string) (core.IngredientRecord, error) {
	_ = f.wait(context.Background())
	if err := poison(phrase); err != nil {
		return core.IngredientRecord{Phrase: phrase}, err
	}
	return core.IngredientRecord{Phrase: phrase, Name: "onion", Quantity: "2", Unit: "cups"}, nil
}

func (f fakePipe) AnnotateIngredientsPartial(ctx context.Context, phrases []string) ([]core.IngredientRecord, []quarantine.Rejection, error) {
	if err := f.wait(ctx); err != nil {
		return nil, nil, err
	}
	out := make([]core.IngredientRecord, len(phrases))
	var rejs []quarantine.Rejection
	for i, p := range phrases {
		if err := poison(p); err != nil {
			rejs = append(rejs, quarantine.Reject(i, p, err))
			continue
		}
		out[i] = core.IngredientRecord{Phrase: p, Name: "onion", Quantity: "2", Unit: "cups"}
	}
	return out, rejs, ctx.Err()
}

func (f fakePipe) ModelRecipeContext(ctx context.Context, title, cuisine string, ingredientLines []string, instructions string) (*core.RecipeModel, error) {
	if err := f.wait(ctx); err != nil {
		return nil, err
	}
	m := &core.RecipeModel{Title: title, Cuisine: cuisine}
	for _, l := range ingredientLines {
		m.Ingredients = append(m.Ingredients, core.IngredientRecord{Phrase: l, Name: "sugar", Quantity: "100", Unit: "grams"})
	}
	m.Events = []core.Event{{Step: 0, Relation: relations.Relation{Process: "mix"}}}
	return m, ctx.Err()
}

func testIndex() *index.Index {
	return index.New([]*core.RecipeModel{
		{Title: "Chicken Soup", Cuisine: "American",
			Ingredients: []core.IngredientRecord{{Name: "chicken"}},
			Events:      []core.Event{{Relation: relations.Relation{Process: "boil"}}}},
		{Title: "Pasta", Cuisine: "Italian",
			Ingredients: []core.IngredientRecord{{Name: "pasta"}},
			Events:      []core.Event{{Relation: relations.Relation{Process: "boil"}}}},
	})
}

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHealth(t *testing.T) {
	s := New(fakePipe{}, nil)
	w := do(t, s, http.MethodGet, "/healthz", "")
	if w.Code != 200 {
		t.Fatalf("health = %d", w.Code)
	}
}

// liveness is GET-only: probes must not mutate, and typos like POST
// /healthz should be loud.
func TestHealthMethodNotAllowed(t *testing.T) {
	s := New(fakePipe{}, nil)
	if w := do(t, s, http.MethodPost, "/healthz", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz = %d", w.Code)
	}
}

// readiness starts false (training in progress), flips with SetReady,
// and is also GET-only.
func TestReadyz(t *testing.T) {
	s := New(fakePipe{}, nil)
	if w := do(t, s, http.MethodGet, "/readyz", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before SetReady = %d", w.Code)
	}
	s.SetReady(true)
	if !s.Ready() {
		t.Fatal("Ready() = false after SetReady(true)")
	}
	if w := do(t, s, http.MethodGet, "/readyz", ""); w.Code != 200 {
		t.Fatalf("readyz after SetReady = %d", w.Code)
	}
	s.SetReady(false)
	if w := do(t, s, http.MethodGet, "/readyz", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after SetReady(false) = %d", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/readyz", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /readyz = %d", w.Code)
	}
}

func TestAnnotate(t *testing.T) {
	s := New(fakePipe{}, nil)
	w := do(t, s, http.MethodPost, "/annotate", `{"phrase":"2 cups onion"}`)
	if w.Code != 200 {
		t.Fatalf("code = %d body = %s", w.Code, w.Body.String())
	}
	var rec core.IngredientRecord
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Name != "onion" || rec.Quantity != "2" {
		t.Fatalf("record = %+v", rec)
	}
}

func TestAnnotateValidation(t *testing.T) {
	s := New(fakePipe{}, nil)
	if w := do(t, s, http.MethodGet, "/annotate", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET = %d", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/annotate", `{}`); w.Code != http.StatusBadRequest {
		t.Fatalf("empty phrase = %d", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/annotate", `{"phrase":1}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad type = %d", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/annotate", `{"unknown":"x"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown field = %d", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/annotate", `{"phrase":`); w.Code != http.StatusBadRequest {
		t.Fatalf("truncated JSON = %d", w.Code)
	}
}

// an over-cap body must be 413, not a generic 400.
func TestOversizedBodyIs413(t *testing.T) {
	s := New(fakePipe{}, nil)
	big := `{"phrase":"` + strings.Repeat("a", maxBody+1) + `"}`
	w := do(t, s, http.MethodPost, "/annotate", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", w.Code)
	}
	if !strings.Contains(w.Body.String(), "exceeds") {
		t.Fatalf("body = %s", w.Body.String())
	}
}

// decodeBatch parses a /annotate/batch response envelope.
func decodeBatch(t *testing.T, w *httptest.ResponseRecorder) batchResponse {
	t.Helper()
	var resp batchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode batch response: %v\n%s", err, w.Body.String())
	}
	return resp
}

func TestAnnotateBatch(t *testing.T) {
	s := New(fakePipe{}, nil)
	w := do(t, s, http.MethodPost, "/annotate/batch",
		`{"phrases":["2 cups onion","1 tsp salt","3 eggs"]}`)
	if w.Code != 200 {
		t.Fatalf("code = %d body = %s", w.Code, w.Body.String())
	}
	resp := decodeBatch(t, w)
	if len(resp.Results) != 3 || resp.OK != 3 || resp.Rejected != 0 {
		t.Fatalf("resp = ok %d rejected %d results %d", resp.OK, resp.Rejected, len(resp.Results))
	}
	// order must follow the request, not completion order.
	for i, phrase := range []string{"2 cups onion", "1 tsp salt", "3 eggs"} {
		item := resp.Results[i]
		if item.Status != "ok" || item.Record == nil || item.Record.Phrase != phrase {
			t.Fatalf("item %d = %+v, want ok record for %q", i, item, phrase)
		}
	}
}

// TestAnnotateBatchMixed: one poison phrase in a batch costs exactly
// that item — the response is 207 with per-item statuses, the good
// records are present and in request order, and the server keeps
// serving afterwards.
func TestAnnotateBatchMixed(t *testing.T) {
	s := New(fakePipe{}, nil)
	w := do(t, s, http.MethodPost, "/annotate/batch",
		`{"phrases":["2 cups onion","   ","panic: wedge","3 eggs"]}`)
	if w.Code != http.StatusMultiStatus {
		t.Fatalf("mixed batch = %d, want 207\n%s", w.Code, w.Body.String())
	}
	resp := decodeBatch(t, w)
	if resp.OK != 2 || resp.Rejected != 2 || len(resp.Results) != 4 {
		t.Fatalf("resp = ok %d rejected %d results %d", resp.OK, resp.Rejected, len(resp.Results))
	}
	if resp.Results[0].Status != "ok" || resp.Results[0].Record.Phrase != "2 cups onion" {
		t.Fatalf("item 0 = %+v", resp.Results[0])
	}
	if resp.Results[1].Status != "rejected" || resp.Results[1].Code != quarantine.CodeEmptyAfterClean {
		t.Fatalf("item 1 = %+v, want rejected empty_after_clean", resp.Results[1])
	}
	if resp.Results[2].Status != "rejected" || resp.Results[2].Code != quarantine.CodeTaggerPanic {
		t.Fatalf("item 2 = %+v, want rejected tagger_panic", resp.Results[2])
	}
	if resp.Results[3].Status != "ok" || resp.Results[3].Record.Phrase != "3 eggs" {
		t.Fatalf("item 3 = %+v", resp.Results[3])
	}
	// rejected items must not carry a record, ok items no code.
	if resp.Results[1].Record != nil || resp.Results[0].Code != "" {
		t.Fatalf("cross-contaminated items: %+v / %+v", resp.Results[0], resp.Results[1])
	}
	// the server survived the poison batch.
	if w := do(t, s, http.MethodPost, "/annotate", `{"phrase":"x"}`); w.Code != 200 {
		t.Fatalf("request after poison batch = %d, want 200", w.Code)
	}
}

// TestAnnotateBatchAllRejected: a batch with no annotatable phrase is a
// 422, still with per-item detail.
func TestAnnotateBatchAllRejected(t *testing.T) {
	s := New(fakePipe{}, nil)
	w := do(t, s, http.MethodPost, "/annotate/batch", `{"phrases":["   ","panic: x"]}`)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("all-rejected batch = %d, want 422\n%s", w.Code, w.Body.String())
	}
	resp := decodeBatch(t, w)
	if resp.OK != 0 || resp.Rejected != 2 {
		t.Fatalf("resp = ok %d rejected %d", resp.OK, resp.Rejected)
	}
}

// TestAnnotateRejected422: the single-phrase endpoint answers a typed
// 422 for a poison phrase.
func TestAnnotateRejected422(t *testing.T) {
	s := New(fakePipe{}, nil)
	w := do(t, s, http.MethodPost, "/annotate", `{"phrase":"   "}`)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("poison phrase = %d, want 422\n%s", w.Code, w.Body.String())
	}
	var resp map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["code"] != string(quarantine.CodeEmptyAfterClean) {
		t.Fatalf("code = %q, want empty_after_clean", resp["code"])
	}
}

// TestReadyzQuarantineCounters: rejections served by the annotate
// endpoints surface on /readyz, cumulative and by code.
func TestReadyzQuarantineCounters(t *testing.T) {
	s := New(fakePipe{}, nil)
	s.SetReady(true)
	do(t, s, http.MethodPost, "/annotate", `{"phrase":"   "}`)
	do(t, s, http.MethodPost, "/annotate/batch", `{"phrases":["ok phrase","panic: wedge","   "]}`)
	w := do(t, s, http.MethodGet, "/readyz", "")
	if w.Code != 200 {
		t.Fatalf("readyz = %d", w.Code)
	}
	var resp struct {
		Quarantined       int64            `json:"quarantined"`
		QuarantinedByCode map[string]int64 `json:"quarantinedByCode"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Quarantined != 3 {
		t.Fatalf("quarantined = %d, want 3\n%s", resp.Quarantined, w.Body.String())
	}
	if resp.QuarantinedByCode["empty_after_clean"] != 2 || resp.QuarantinedByCode["tagger_panic"] != 1 {
		t.Fatalf("byCode = %v", resp.QuarantinedByCode)
	}
}

func TestAnnotateBatchValidation(t *testing.T) {
	s := New(fakePipe{}, nil)
	if w := do(t, s, http.MethodPost, "/annotate/batch", `{"phrases":[]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch = %d", w.Code)
	}
	if w := do(t, s, http.MethodGet, "/annotate/batch", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET = %d", w.Code)
	}
	big, err := json.Marshal(map[string][]string{"phrases": make([]string, maxBatchPhrases+1)})
	if err != nil {
		t.Fatal(err)
	}
	if w := do(t, s, http.MethodPost, "/annotate/batch", string(big)); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch = %d", w.Code)
	}
}

func TestModel(t *testing.T) {
	s := New(fakePipe{}, nil)
	w := do(t, s, http.MethodPost, "/model",
		`{"title":"Cake","ingredients":["100 grams sugar"],"instructions":"Mix."}`)
	if w.Code != 200 {
		t.Fatalf("code = %d body = %s", w.Code, w.Body.String())
	}
	var resp struct {
		Model struct {
			Title string `json:"Title"`
		} `json:"model"`
		Nutrition struct {
			Calories float64 `json:"Calories"`
		} `json:"nutrition"`
		Resolved int `json:"resolvedIngredients"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Model.Title != "Cake" || resp.Resolved != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Nutrition.Calories < 380 || resp.Nutrition.Calories > 390 {
		t.Fatalf("calories = %v", resp.Nutrition.Calories)
	}
}

func TestModelValidation(t *testing.T) {
	s := New(fakePipe{}, nil)
	if w := do(t, s, http.MethodPost, "/model", `{"title":"x"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("no ingredients = %d", w.Code)
	}
	if w := do(t, s, http.MethodDelete, "/model", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE = %d", w.Code)
	}
}

func TestSearch(t *testing.T) {
	s := New(fakePipe{}, testIndex())
	w := do(t, s, http.MethodPost, "/search", `{"processes":["boil"],"cuisine":"Italian"}`)
	if w.Code != 200 {
		t.Fatalf("code = %d body = %s", w.Code, w.Body.String())
	}
	var hits []struct {
		Title string `json:"title"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &hits); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Title != "Pasta" {
		t.Fatalf("hits = %+v", hits)
	}
}

func TestSearchWithoutIndex(t *testing.T) {
	s := New(fakePipe{}, nil)
	if w := do(t, s, http.MethodPost, "/search", `{}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("no index = %d", w.Code)
	}
}

// entity span types survive the JSON round trip.
func TestModelJSONIncludesEvents(t *testing.T) {
	s := New(fakePipe{}, nil)
	w := do(t, s, http.MethodPost, "/model",
		`{"ingredients":["x"],"instructions":"Mix."}`)
	if !strings.Contains(w.Body.String(), `"Process": "mix"`) {
		t.Fatalf("events missing:\n%s", w.Body.String())
	}
	_ = ner.Span{} // document the shared span type
}

// TestPanicContained: an injected handler panic must come back as a
// 500 with a stack in the log, and the server must keep serving.
func TestPanicContained(t *testing.T) {
	var logBuf bytes.Buffer
	s := NewWithConfig(fakePipe{}, nil, Config{Logger: log.New(&logBuf, "", 0)})
	defer faults.Enable(FaultServe, faults.Fault{PanicMsg: "wedged handler", Limit: 1})()
	if w := do(t, s, http.MethodPost, "/annotate", `{"phrase":"x"}`); w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request = %d, want 500", w.Code)
	}
	if !strings.Contains(logBuf.String(), "wedged handler") || !strings.Contains(logBuf.String(), "goroutine") {
		t.Fatalf("log missing panic + stack:\n%s", logBuf.String())
	}
	// the process survived; the next request is normal.
	if w := do(t, s, http.MethodPost, "/annotate", `{"phrase":"x"}`); w.Code != 200 {
		t.Fatalf("request after panic = %d, want 200", w.Code)
	}
}

// TestSheddingAt429: with an in-flight cap of 1, a request held open
// by the gate makes a concurrent request shed with 429 + Retry-After;
// after the gate opens everything is admitted again.
func TestSheddingAt429(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	s := NewWithConfig(fakePipe{gate: gate, entered: entered}, nil, Config{MaxInFlight: 1, RetryAfter: 2 * time.Second})

	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		firstDone <- do(t, s, http.MethodPost, "/annotate", `{"phrase":"slow"}`)
	}()
	// the pipe signals entered only after the limiter admitted the
	// request, so the in-flight slot is provably occupied here.
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the pipe")
	}
	if s.limiter.InFlight() != 1 {
		t.Fatal("first request never reached the limiter")
	}

	w := do(t, s, http.MethodPost, "/annotate", `{"phrase":"shed me"}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("concurrent request = %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", w.Header().Get("Retry-After"))
	}

	close(gate)
	if first := <-firstDone; first.Code != 200 {
		t.Fatalf("gated request = %d, want 200", first.Code)
	}
	if w := do(t, s, http.MethodPost, "/annotate", `{"phrase":"x"}`); w.Code != 200 {
		t.Fatalf("request after release = %d, want 200", w.Code)
	}
}

// TestBatchWeightedAdmission: a batch occupies one unit per distinct
// phrase, so a batch of 3 distinct phrases (each twice) in flight
// under a cap of 4 sheds the next 3-phrase batch but still admits a
// single annotate.
func TestBatchWeightedAdmission(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	s := NewWithConfig(fakePipe{gate: gate, entered: entered}, nil, Config{MaxInFlight: 4})

	bigDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		bigDone <- do(t, s, http.MethodPost, "/annotate/batch", `{"phrases":["a","b","c","a","b","c"]}`)
	}()
	// one batch = one pipe call; its entered signal fires after the
	// limiter charged the batch's 3 distinct phrases.
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("batch never reached the pipe")
	}
	if s.limiter.InFlight() != 3 {
		t.Fatalf("inflight = %d, want 3 (distinct phrases of the batch)", s.limiter.InFlight())
	}

	if w := do(t, s, http.MethodPost, "/annotate/batch", `{"phrases":["d","e","f"]}`); w.Code != http.StatusTooManyRequests {
		t.Fatalf("second batch = %d, want 429", w.Code)
	}

	// a single annotate still fits in the remaining unit — but it would
	// block on the gate; just verify admission, using a fresh unblocked
	// pipe through the same limiter is not possible, so assert capacity
	// arithmetic directly instead.
	if rel, ok := s.limiter.TryAcquire(1); !ok {
		t.Fatal("one remaining unit must admit a single request")
	} else {
		rel()
	}

	close(gate)
	if big := <-bigDone; big.Code != 200 {
		t.Fatalf("gated batch = %d, want 200", big.Code)
	}
}

// TestRequestDeadline503: a request that overruns its per-request
// deadline answers 503 with a Retry-After instead of hanging.
func TestRequestDeadline503(t *testing.T) {
	gate := make(chan struct{}) // never closed: the pipe blocks until ctx expires
	defer close(gate)
	s := NewWithConfig(fakePipe{gate: gate}, nil, Config{RequestTimeout: 20 * time.Millisecond})
	w := do(t, s, http.MethodPost, "/annotate/batch", `{"phrases":["x"]}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("deadline overrun = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 must carry Retry-After")
	}
}

// TestInjectedServeError: the server-level fault point maps injected
// errors to 500 (used by ops drills to rehearse alerting).
func TestInjectedServeError(t *testing.T) {
	s := New(fakePipe{}, nil)
	defer faults.Enable(FaultServe, faults.Fault{Err: context.DeadlineExceeded, Limit: 1})()
	if w := do(t, s, http.MethodGet, "/healthz", ""); w.Code != http.StatusInternalServerError {
		t.Fatalf("injected error = %d, want 500", w.Code)
	}
	if w := do(t, s, http.MethodGet, "/healthz", ""); w.Code != 200 {
		t.Fatalf("after fault window = %d, want 200", w.Code)
	}
}
