package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"recipemodel/internal/core"
	"recipemodel/internal/persist"
	"recipemodel/internal/quarantine"
)

// versionedPipe is a fakePipe whose annotations carry a State marker,
// so tests can tell which model generation served a response.
type versionedPipe struct {
	fakePipe
	marker string
}

func (v versionedPipe) AnnotateIngredientChecked(phrase string) (core.IngredientRecord, error) {
	r, err := v.fakePipe.AnnotateIngredientChecked(phrase)
	r.State = v.marker
	return r, err
}

// onionCanary matches the fake pipes, which extract "onion" from
// everything.
var onionCanary = []core.CanaryCase{{Phrase: "2 cups chopped onion", WantName: "onion"}}

func annotateState(t *testing.T, s *Server) string {
	t.Helper()
	w := do(t, s, http.MethodPost, "/annotate", `{"phrase":"x"}`)
	if w.Code != 200 {
		t.Fatalf("annotate = %d: %s", w.Code, w.Body.String())
	}
	var rec core.IngredientRecord
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	return rec.State
}

func TestReloadNotConfigured(t *testing.T) {
	s := New(fakePipe{}, nil)
	if w := do(t, s, http.MethodPost, "/admin/reload", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("reload without loader = %d, want 503", w.Code)
	}
}

func TestReloadMethodNotAllowed(t *testing.T) {
	s := New(fakePipe{}, nil)
	if w := do(t, s, http.MethodGet, "/admin/reload", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/reload = %d, want 405", w.Code)
	}
}

// TestReloadSwapsServingModel: a valid candidate passes canary and
// atomically replaces the serving pipeline; /readyz reports the new
// version and the reload count.
func TestReloadSwapsServingModel(t *testing.T) {
	s := NewWithConfig(versionedPipe{marker: "v1"}, nil, Config{
		ModelVersion: "v1",
		Canary:       onionCanary,
		Loader: func() (Pipeline, string, error) {
			return versionedPipe{marker: "v2"}, "v2", nil
		},
	})
	s.SetReady(true)
	if got := annotateState(t, s); got != "v1" {
		t.Fatalf("serving %q before reload, want v1", got)
	}
	w := do(t, s, http.MethodPost, "/admin/reload", "")
	if w.Code != 200 {
		t.Fatalf("reload = %d: %s", w.Code, w.Body.String())
	}
	if got := annotateState(t, s); got != "v2" {
		t.Fatalf("serving %q after reload, want v2", got)
	}
	var ready readyResponse
	r := do(t, s, http.MethodGet, "/readyz", "")
	if err := json.Unmarshal(r.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Model != "v2" || ready.Reloads != 1 || ready.Reload.Last != "ok" {
		t.Fatalf("readyz after reload = %+v", ready)
	}
}

// TestReloadRejectsCanaryFailure: a candidate that misannotates the
// golden set is rejected with 422 and the old model keeps serving.
func TestReloadRejectsCanaryFailure(t *testing.T) {
	bad := versionedPipe{marker: "v2-bad"}
	s := NewWithConfig(versionedPipe{marker: "v1"}, nil, Config{
		ModelVersion: "v1",
		Canary:       []core.CanaryCase{{Phrase: "2 cups chopped onion", WantName: "something else"}},
		Loader: func() (Pipeline, string, error) {
			return bad, "v2-bad", nil
		},
	})
	s.SetReady(true)
	w := do(t, s, http.MethodPost, "/admin/reload", "")
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("canary-failing reload = %d, want 422", w.Code)
	}
	if !strings.Contains(w.Body.String(), "canary") {
		t.Fatalf("rejection body lacks canary detail: %s", w.Body.String())
	}
	if got := annotateState(t, s); got != "v1" {
		t.Fatalf("serving %q after rejected reload, want v1", got)
	}
	var ready readyResponse
	r := do(t, s, http.MethodGet, "/readyz", "")
	if err := json.Unmarshal(r.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Model != "v1" || ready.RejectedReloads != 1 || ready.Reload.Last != "rejected" {
		t.Fatalf("readyz after rejected reload = %+v", ready)
	}
}

// TestReloadRejectsCanaryError: a candidate whose canary decode
// returns an error is rejected with the error wrapped and the phrase
// named, and the old model keeps serving.
func TestReloadRejectsCanaryError(t *testing.T) {
	s := NewWithConfig(versionedPipe{marker: "v1"}, nil, Config{
		Canary: []core.CanaryCase{{Phrase: "panic: canary", WantName: "onion"}},
		Loader: func() (Pipeline, string, error) {
			return versionedPipe{marker: "v2"}, "v2", nil
		},
	})
	_, err := s.Reload()
	if !errors.Is(err, quarantine.ErrTaggerPanic) || !strings.Contains(err.Error(), `"panic: canary"`) {
		t.Fatalf("Reload() = %v, want the tagger panic wrapped with the canary phrase", err)
	}
	if got := annotateState(t, s); got != "v1" {
		t.Fatalf("serving %q after rejected reload, want v1", got)
	}
}

// TestReloadRejectsCorruptBundle drives the real store loader against
// a deliberately corrupted bundle: the checksum passes (the corruption
// is in the payload the manifest describes) but the gob decode fails,
// the reload answers 422, and the old model keeps serving.
func TestReloadRejectsCorruptBundle(t *testing.T) {
	dir := t.TempDir()
	garbage := []byte("definitely not a gob bundle")
	sum := sha256.Sum256(garbage)
	verDir := filepath.Join(dir, "bundles", "v000001")
	if err := os.MkdirAll(verDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(verDir, "bundle.gob"), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	man := fmt.Sprintf(`{"version":"v000001","size":%d,"sha256":"%s"}`, len(garbage), hex.EncodeToString(sum[:]))
	if err := os.WriteFile(filepath.Join(verDir, "MANIFEST.json"), []byte(man), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "CURRENT"), []byte("v000001\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := NewWithConfig(versionedPipe{marker: "v0"}, nil, Config{
		ModelVersion: "v0",
		Canary:       onionCanary,
		Loader: func() (Pipeline, string, error) {
			st, err := persist.OpenStore(dir)
			if err != nil {
				return nil, "", err
			}
			_, _, v, err := st.Load()
			if err != nil {
				return nil, v, err
			}
			t.Fatal("corrupt store loaded cleanly")
			return nil, "", nil
		},
	})
	s.SetReady(true)
	w := do(t, s, http.MethodPost, "/admin/reload", "")
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt-bundle reload = %d: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "bundle.gob") {
		t.Fatalf("rejection does not name the corrupt artifact: %s", w.Body.String())
	}
	if got := annotateState(t, s); got != "v0" {
		t.Fatalf("serving %q after rejected reload, want v0", got)
	}
}

// TestReloadRejectsPanickingCandidate: a candidate that panics during
// the canary check is contained and rejected — the process survives.
func TestReloadRejectsPanickingCandidate(t *testing.T) {
	s := NewWithConfig(versionedPipe{marker: "v1"}, nil, Config{
		Canary: onionCanary,
		Loader: func() (Pipeline, string, error) {
			return panicPipe{}, "v2", nil
		},
	})
	s.SetReady(true)
	w := do(t, s, http.MethodPost, "/admin/reload", "")
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("panicking candidate = %d, want 422", w.Code)
	}
	if !strings.Contains(w.Body.String(), "panicked") {
		t.Fatalf("rejection body: %s", w.Body.String())
	}
	if got := annotateState(t, s); got != "v1" {
		t.Fatalf("serving %q, want v1", got)
	}
}

// panicPipe simulates a structurally loadable but broken model.
type panicPipe struct{ fakePipe }

func (panicPipe) AnnotateIngredientChecked(string) (core.IngredientRecord, error) {
	panic("corrupt weights")
}

// TestReloadKeepsServingMidReload: while a slow reload is in progress
// (the loader is blocked), requests keep being served by the old
// model, and /readyz reports the reload as in progress.
func TestReloadKeepsServingMidReload(t *testing.T) {
	loaderEntered := make(chan struct{})
	loaderGate := make(chan struct{})
	s := NewWithConfig(versionedPipe{marker: "v1"}, nil, Config{
		Canary: onionCanary,
		Loader: func() (Pipeline, string, error) {
			close(loaderEntered)
			<-loaderGate
			return versionedPipe{marker: "v2"}, "v2", nil
		},
	})
	s.SetReady(true)

	reloadDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { reloadDone <- do(t, s, http.MethodPost, "/admin/reload", "") }()
	<-loaderEntered

	// mid-reload: old model serves, readyz shows in-progress.
	if got := annotateState(t, s); got != "v1" {
		t.Fatalf("mid-reload serving %q, want v1", got)
	}
	var ready readyResponse
	r := do(t, s, http.MethodGet, "/readyz", "")
	if err := json.Unmarshal(r.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if !ready.Reload.InProgress {
		t.Fatalf("readyz mid-reload = %+v, want inProgress", ready)
	}

	close(loaderGate)
	if w := <-reloadDone; w.Code != 200 {
		t.Fatalf("reload = %d: %s", w.Code, w.Body.String())
	}
	if got := annotateState(t, s); got != "v2" {
		t.Fatalf("post-reload serving %q, want v2", got)
	}
}

// TestReloadDoesNotDropInFlight: a request already inside the old
// pipeline when the swap lands must complete successfully on the old
// model while new requests see the new one.
func TestReloadDoesNotDropInFlight(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	old := versionedPipe{fakePipe: fakePipe{gate: gate, entered: entered}, marker: "v1"}
	s := NewWithConfig(old, nil, Config{
		Canary: onionCanary,
		Loader: func() (Pipeline, string, error) {
			return versionedPipe{marker: "v2"}, "v2", nil
		},
	})
	s.SetReady(true)

	inFlight := make(chan *httptest.ResponseRecorder, 1)
	go func() { inFlight <- do(t, s, http.MethodPost, "/annotate", `{"phrase":"held"}`) }()
	// entered fires once the request is inside the old pipeline (past
	// the limiter), which is the state the reload must not disturb.
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("held request never reached the pipe")
	}

	if w := do(t, s, http.MethodPost, "/admin/reload", ""); w.Code != 200 {
		t.Fatalf("reload = %d: %s", w.Code, w.Body.String())
	}
	// new requests are served by the new model...
	if got := annotateState(t, s); got != "v2" {
		t.Fatalf("post-swap serving %q, want v2", got)
	}
	// ...while the held request completes on the old one.
	close(gate)
	w := <-inFlight
	if w.Code != 200 {
		t.Fatalf("in-flight request across reload = %d", w.Code)
	}
	var rec core.IngredientRecord
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != "v1" {
		t.Fatalf("in-flight request served by %q, want the old model v1", rec.State)
	}
}

// Reload via the exported method (the SIGHUP path) behaves like the
// HTTP endpoint.
func TestReloadMethodDirect(t *testing.T) {
	s := NewWithConfig(versionedPipe{marker: "v1"}, nil, Config{
		Canary: onionCanary,
		Loader: func() (Pipeline, string, error) {
			return versionedPipe{marker: "v2"}, "v2", nil
		},
	})
	v, err := s.Reload()
	if err != nil || v != "v2" {
		t.Fatalf("Reload() = %q, %v", v, err)
	}
	if _, err := (&Server{}).Reload(); err == nil {
		t.Fatal("Reload without loader must error")
	}
}
