package main

import (
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"recipemodel"
	"recipemodel/internal/core"
	"recipemodel/internal/faults"
	"recipemodel/internal/server"
)

// TestBuildServerFromStoreAndHotReload is the full retrain-and-redeploy
// loop against a real versioned store: train v1, serve it, publish v2,
// reload over HTTP, and confirm /readyz tracks the swap.
func TestBuildServerFromStoreAndHotReload(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pipeline")
	}
	storeDir := t.TempDir()
	p, err := recipemodel.NewPipeline(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	v1, err := p.SaveToStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}

	h, err := buildServer("", storeDir, "", 0, recipemodel.Options{}, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h.SetReady(true)
	if got := h.ModelVersion(); got != v1 {
		t.Fatalf("serving %q, want %q", got, v1)
	}

	// the live request path works off the store-loaded model.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/annotate",
		strings.NewReader(`{"phrase":"2 cups chopped onion"}`)))
	if w.Code != 200 || !strings.Contains(w.Body.String(), "onion") {
		t.Fatalf("annotate: %d %s", w.Code, w.Body.String())
	}

	// publish v2 (a retrain), then hot-reload into it.
	v2, err := p.SaveToStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if w.Code != 200 {
		t.Fatalf("reload: %d %s", w.Code, w.Body.String())
	}
	if got := h.ModelVersion(); got != v2 {
		t.Fatalf("serving %q after reload, want %q", got, v2)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var ready struct {
		Model   string `json:"model"`
		Reloads int64  `json:"reloads"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Model != v2 || ready.Reloads != 1 {
		t.Fatalf("readyz = %+v", ready)
	}
}

func TestBuildServerFromEmptyStore(t *testing.T) {
	if _, err := buildServer("", t.TempDir(), "", 0, recipemodel.Options{}, server.Config{}); err == nil {
		t.Fatal("expected error for a store with no versions")
	}
}

// TestServeSIGHUPReloads: a SIGHUP mid-serve triggers a reload without
// terminating; the server keeps answering and a later SIGTERM still
// drains cleanly. Uses a fake loader so no training is needed.
func TestServeSIGHUPReloads(t *testing.T) {
	reloaded := make(chan struct{}, 1)
	// gatedPipe extracts no entities, so pin a canary it passes (empty
	// name) — this test exercises the signal plumbing, not the canary.
	s := server.NewWithConfig(gatedPipe{}, nil, server.Config{
		ModelVersion: "v1",
		Canary:       []core.CanaryCase{{Phrase: "2 cups chopped onion", WantName: ""}},
		Loader: func() (server.Pipeline, string, error) {
			select {
			case reloaded <- struct{}{}:
			default:
			}
			return gatedPipe{}, "v2", nil
		},
	})
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
	waitHealthy(t, base)

	// sighup_done fires after the whole reload round lands, so the
	// version assertions below need no polling.
	hupDone := make(chan struct{}, 1)
	defer faults.Enable(FaultSighup, faults.Fault{OnHit: func(int) {
		select {
		case hupDone <- struct{}{}:
		default:
		}
	}})()
	sigs <- syscall.SIGHUP
	select {
	case <-reloaded:
	case <-time.After(3 * time.Second):
		t.Fatal("SIGHUP did not trigger the loader")
	}
	select {
	case <-hupDone:
	case <-time.After(3 * time.Second):
		t.Fatal("SIGHUP round never completed")
	}
	if got := s.ModelVersion(); got != "v2" {
		t.Fatalf("model after SIGHUP = %q, want v2", got)
	}
	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz after SIGHUP: %v %v", resp, err)
	}

	sigs <- syscall.SIGTERM
	if err := <-serveDone; err != nil {
		t.Fatalf("serve returned %v, want nil", err)
	}
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	// The listener is bound before serve starts, so a connection made
	// here queues in the accept backlog until Serve picks it up — one
	// blocking GET replaces the old retry-and-sleep loop.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("server never became healthy: %v", err)
	}
	resp.Body.Close()
}
