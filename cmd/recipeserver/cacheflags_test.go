package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"recipemodel/internal/server"
)

// TestCacheConfigLine: the startup line states the posture and, when
// on, the bound — the operator-facing contract of satellite (a).
func TestCacheConfigLine(t *testing.T) {
	on := cacheConfigLine(defaultCacheEntries)
	if !strings.Contains(on, "on") || !strings.Contains(on, "65536 entries") {
		t.Fatalf("on line = %q", on)
	}
	if off := cacheConfigLine(0); !strings.Contains(off, "off") {
		t.Fatalf("off line = %q", off)
	}
}

// TestBuildServerWiresCache: the flag value reaches the running
// server — a trained server built with CacheEntries answers the
// second identical annotate from cache, visible on /readyz.
func TestBuildServerWiresCache(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pipeline")
	}
	h, err := buildServer("", "", "", 0, smallOpts(), server.Config{
		CacheEntries: defaultCacheEntries,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.SetReady(true)
	for i := 0; i < 2; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/annotate",
			strings.NewReader(`{"phrase":"2 cups chopped onion"}`)))
		if w.Code != 200 {
			t.Fatalf("annotate %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var ready struct {
		Cache struct {
			Enabled    bool   `json:"enabled"`
			Hits       int64  `json:"hits"`
			Generation uint64 `json:"generation"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ready); err != nil {
		t.Fatalf("readyz: %v\n%s", err, w.Body.String())
	}
	if !ready.Cache.Enabled || ready.Cache.Hits != 1 || ready.Cache.Generation != 1 {
		t.Fatalf("cache status = %+v", ready.Cache)
	}
}
