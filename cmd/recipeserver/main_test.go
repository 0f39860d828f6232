package main

import (
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"recipemodel"
	"recipemodel/internal/core"
	"recipemodel/internal/faults"
	"recipemodel/internal/quarantine"
	"recipemodel/internal/server"
)

// smallOpts keeps test training fast.
func smallOpts() recipemodel.Options {
	o := recipemodel.DefaultOptions()
	o.TrainingPhrases = 400
	o.TrainingInstructions = 200
	o.Epochs = 3
	return o
}

func TestBuildServerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pipeline")
	}
	h, err := buildServer("", "", "", 20, smallOpts(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// annotate
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/annotate",
		strings.NewReader(`{"phrase":"2 cups chopped onion"}`)))
	if w.Code != 200 || !strings.Contains(w.Body.String(), "onion") {
		t.Fatalf("annotate: %d %s", w.Code, w.Body.String())
	}
	// batch with the request context threaded through the pool
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/annotate/batch",
		strings.NewReader(`{"phrases":["2 cups chopped onion","1 tsp salt"]}`)))
	if w.Code != 200 {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	// search over the mined corpus
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/search",
		strings.NewReader(`{"processes":["preheat"]}`)))
	if w.Code != 200 {
		t.Fatalf("search: %d %s", w.Code, w.Body.String())
	}
	// readiness is main's to flip: still false out of buildServer.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before SetReady: %d", w.Code)
	}
	h.SetReady(true)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != 200 {
		t.Fatalf("readyz after SetReady: %d", w.Code)
	}
}

func TestBuildServerFromPersistedModel(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pipeline")
	}
	p, err := recipemodel.NewPipeline(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	h, err := buildServer(path, "", "", 0, recipemodel.Options{}, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != 200 {
		t.Fatalf("health: %d", w.Code)
	}
	// /search disabled without a corpus.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(`{}`)))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("search without corpus: %d", w.Code)
	}
}

func TestBuildServerMissingModelFile(t *testing.T) {
	if _, err := buildServer("/nonexistent/model.bin", "", "", 0, recipemodel.Options{}, server.Config{}); err == nil {
		t.Fatal("expected error for missing model file")
	}
}

// gatedPipe is a minimal server.Pipeline whose single-phrase
// annotation signals `entered` then blocks until `gate` closes, so
// shutdown tests can hold a request in flight deterministically — no
// sleeps.
type gatedPipe struct {
	entered chan struct{}
	gate    chan struct{}
}

func (g gatedPipe) AnnotateIngredientChecked(phrase string) (core.IngredientRecord, error) {
	if g.entered != nil {
		g.entered <- struct{}{}
	}
	if g.gate != nil {
		<-g.gate
	}
	return core.IngredientRecord{Phrase: phrase}, nil
}

func (g gatedPipe) AnnotateIngredientsPartial(ctx context.Context, phrases []string) ([]core.IngredientRecord, []quarantine.Rejection, error) {
	out := make([]core.IngredientRecord, len(phrases))
	for i, p := range phrases {
		out[i] = core.IngredientRecord{Phrase: p}
	}
	return out, nil, ctx.Err()
}

func (g gatedPipe) ModelRecipeContext(ctx context.Context, title, cuisine string, lines []string, instr string) (*core.RecipeModel, error) {
	return &core.RecipeModel{Title: title}, nil
}

// TestServeGracefulShutdown is the kill -INT drill without a real
// process kill: a request is held in flight, the termination signal
// arrives, and serve must (1) flip readiness off, (2) let the
// in-flight request finish with 200, (3) return nil — the exit-0 path
// — and (4) stop accepting new connections.
func TestServeGracefulShutdown(t *testing.T) {
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	s := server.New(gatedPipe{entered: entered, gate: gate}, nil)
	s.SetReady(true)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(ln.Addr().String(), s)
	sigs := make(chan os.Signal, 1)

	serveDone := make(chan error, 1)
	go func() { serveDone <- serve(srv, s, ln, 5*time.Second, sigs, log.New(io.Discard, "", 0)) }()

	base := "http://" + ln.Addr().String()
	inFlight := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/annotate", "application/json",
			strings.NewReader(`{"phrase":"slow"}`))
		if err != nil {
			inFlight <- -1
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		inFlight <- resp.StatusCode
	}()
	<-entered // the request is now inside the pipeline, holding its connection

	// the drain_start fault point fires right after readiness flips
	// false, so gating on it replaces sleep-polling s.Ready().
	draining := make(chan struct{})
	defer faults.Enable(FaultDrain, faults.Fault{OnHit: func(int) { close(draining) }})()
	sigs <- syscall.SIGTERM
	select {
	case <-draining:
	case <-time.After(3 * time.Second):
		t.Fatal("drain never started after termination signal")
	}
	if s.Ready() {
		t.Fatal("readiness still true after termination signal")
	}

	close(gate) // release the in-flight request; the drain must let it finish
	if code := <-inFlight; code != 200 {
		t.Fatalf("in-flight request during drain = %d, want 200", code)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve returned %v, want nil (exit 0)", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after drain")
	}
}
