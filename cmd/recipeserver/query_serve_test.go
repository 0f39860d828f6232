package main

import (
	"bytes"
	"encoding/json"
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
	"recipemodel/internal/server"
	"recipemodel/internal/snapshot"
)

// corpusModels builds a small, structurally varied corpus.
func corpusModels(n int) []*core.RecipeModel {
	names := []string{"onion", "garlic", "tomato"}
	out := make([]*core.RecipeModel, n)
	for i := range out {
		out[i] = &core.RecipeModel{
			Title:   "recipe",
			Cuisine: "thai",
			Ingredients: []core.IngredientRecord{
				{Phrase: "1 cup " + names[i%3], Name: names[i%3], Quantity: "1", Unit: "cup"},
			},
			Instructions: []string{"Cook."},
		}
	}
	return out
}

// firstSegment returns the file name of version's first segment, as
// the version's MANIFEST.json in the snapshot store at dir records it.
func firstSegment(t *testing.T, dir, version string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "snapshots", version, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Segments []struct {
			Name string `json:"name"`
		} `json:"segments"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) == 0 {
		t.Fatalf("%s lists no segments", version)
	}
	return man.Segments[0].Name
}

// TestOpenCorpus: boot loads the newest good version; a torn CURRENT
// version is logged and rolled past; boot and reload share one store.
func TestOpenCorpus(t *testing.T) {
	dir := t.TempDir()
	st, err := snapshot.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Build(corpusModels(5)); err != nil {
		t.Fatal(err)
	}
	v2, err := st.Build(corpusModels(8))
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "snapshots", v2, firstSegment(t, dir, v2))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var logBuf bytes.Buffer
	snap, loader, err := openCorpus(dir, log.New(&logBuf, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != "v000001" || len(snap.Models) != 5 {
		t.Fatalf("boot snapshot %q with %d docs, want v000001 with 5", snap.Version, len(snap.Models))
	}
	if !strings.Contains(logBuf.String(), v2) || !strings.Contains(logBuf.String(), "manifest expects") {
		t.Fatalf("rejection log: %s", logBuf.String())
	}
	// The strict loader keeps refusing the torn CURRENT version.
	if _, err := loader(); err == nil {
		t.Fatal("loader accepted the torn CURRENT version")
	}
	// Once CURRENT names the boot version again, the store is unchanged
	// since boot: the loader reads it through the store that booted, so
	// it hands back the boot snapshot's models, not fresh copies.
	if err := st.SetCurrent("v000001"); err != nil {
		t.Fatal(err)
	}
	again, err := loader()
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Models) != len(snap.Models) {
		t.Fatalf("reload of the boot version: %d docs, want %d", len(again.Models), len(snap.Models))
	}
	for i := range snap.Models {
		if again.Models[i] != snap.Models[i] {
			t.Fatalf("doc %d: reload of an unchanged store returned a new model, not the boot snapshot's", i)
		}
	}
}

// TestServeSIGHUPReloadsCorpus: a SIGHUP swaps in a newly published
// snapshot without terminating the server.
func TestServeSIGHUPReloadsCorpus(t *testing.T) {
	dir := t.TempDir()
	st, err := snapshot.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Build(corpusModels(4)); err != nil {
		t.Fatal(err)
	}
	snap, loader, err := openCorpus(dir, log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	s := server.NewWithConfig(gatedPipe{}, nil, server.Config{
		CorpusSnapshot: snap,
		CorpusShards:   2,
		CorpusLoader:   loader,
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

	// Queries serve the boot snapshot.
	resp, err := http.Post(base+"/query/similar", "application/json", strings.NewReader(`{"id": 0, "k": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Snapshot string `json:"snapshot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if env.Snapshot != "v000001" {
		t.Fatalf("boot query served %q", env.Snapshot)
	}

	// Publish v2, SIGHUP, and wait for the swap.
	if _, err := st.Build(corpusModels(6)); err != nil {
		t.Fatal(err)
	}
	hupDone := make(chan struct{}, 1)
	defer faults.Enable(FaultSighup, faults.Fault{OnHit: func(int) {
		select {
		case hupDone <- struct{}{}:
		default:
		}
	}})()
	sigs <- syscall.SIGHUP
	select {
	case <-hupDone:
	case <-time.After(3 * time.Second):
		t.Fatal("SIGHUP round never completed")
	}
	if got := s.CorpusVersion(); got != "v000002" {
		t.Fatalf("corpus after SIGHUP = %q, want v000002", got)
	}

	sigs <- syscall.SIGTERM
	if err := <-serveDone; err != nil {
		t.Fatalf("serve returned %v, want nil", err)
	}
}

// TestBuildServerBootLanes drives the whole two-lane boot: the model
// store loads and the -corpus mining runs while the snapshot store
// loads beside them, and the server comes out serving all three.
func TestBuildServerBootLanes(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pipeline")
	}
	storeDir, snapDir := t.TempDir(), t.TempDir()
	p, err := recipemodel.NewPipeline(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	model, err := p.SaveToStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.OpenStore(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Build(corpusModels(6)); err != nil {
		t.Fatal(err)
	}
	h, err := buildServer("", storeDir, snapDir, 5, recipemodel.Options{}, server.Config{CorpusShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if h.ModelVersion() != model || h.CorpusVersion() != "v000001" || !h.CorpusReloadEnabled() {
		t.Fatalf("boot serves model %q and corpus %q (reload enabled %v), want %q and v000001",
			h.ModelVersion(), h.CorpusVersion(), h.CorpusReloadEnabled(), model)
	}
	for path, body := range map[string]string{"/search": `{}`, "/query/search": `{"ingredients": ["onion"]}`} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, w.Code, w.Body.String())
		}
	}
}

// TestBuildServerLaneErrors: a failed lane ends the boot with its own
// error after both lanes have joined. When both fail, the snapshot
// error is returned, as when a bad snapshot ended the boot before the
// model loaded.
func TestBuildServerLaneErrors(t *testing.T) {
	good, empty := t.TempDir(), t.TempDir()
	st, err := snapshot.OpenStore(good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Build(corpusModels(4)); err != nil {
		t.Fatal(err)
	}
	_, _, snapErr := openCorpus(empty, log.New(io.Discard, "", 0))
	if snapErr == nil {
		t.Fatal("an empty snapshot store booted")
	}
	const missing = "/nonexistent/model.bin"
	if _, err := buildServer(missing, "", empty, 0, recipemodel.Options{}, server.Config{}); err == nil || err.Error() != snapErr.Error() {
		t.Fatalf("both lanes failed: err = %v, want the snapshot error %v", err, snapErr)
	}
	if _, err := buildServer(missing, "", good, 0, recipemodel.Options{}, server.Config{}); err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("model lane failed: err = %v, want the model file error", err)
	}
}
