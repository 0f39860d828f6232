// The race runtime instruments allocations of its own, so
// AllocsPerRun counts are only meaningful in normal builds.
//go:build !race

package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"recipemodel/internal/core"
)

// discardWriter is a reusable http.ResponseWriter that keeps the
// status and counts the body, so an allocation count through
// ServeHTTP measures the server, not a recorder's buffer growth.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (d *discardWriter) Header() http.Header { return d.h }

func (d *discardWriter) WriteHeader(code int) { d.code = code }

func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// replayBody is a rewindable request body.
type replayBody struct{ strings.Reader }

func (*replayBody) Close() error { return nil }

// serveAllocs serves one POST of body to path through s.ServeHTTP
// (after a first, cache-warming request that must answer 200) and
// returns the mean allocations per request, with the request and the
// response writer reused across runs.
func serveAllocs(t *testing.T, s *Server, path, body string) float64 {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, nil)
	rb := new(replayBody)
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		rb.Reset(body)
		req.Body = rb
		w.code, w.n = 0, 0
		s.ServeHTTP(w, req)
	}
	serve()
	if w.code != http.StatusOK || w.n == 0 {
		t.Fatalf("%s warm-up = %d (%d bytes), want 200", path, w.code, w.n)
	}
	allocs := testing.AllocsPerRun(200, serve)
	if w.code != http.StatusOK {
		t.Fatalf("%s = %d, want 200", path, w.code)
	}
	return allocs
}

// TestAnnotateHitAllocCap caps the allocations of the two cache-hit
// shapes the annotate endpoints serve most: an all-hit 256-line batch
// (the batch-corpus request size) and a cached single /annotate. The
// caps are the counts measured with the append writer (respond.go),
// 285 and 11, of which the response buffer is one each. Writing the
// same bytes through encoding/json, an envelope struct per slot and a
// record copy per slot, cost 564 and 17, so any of them creeping back
// into the hot path fails here.
func TestAnnotateHitAllocCap(t *testing.T) {
	phrases := make([]string, 256)
	for i := range phrases {
		phrases[i] = fmt.Sprintf("%q", fmt.Sprintf("%d cups chopped onion variant %d", 1+i%4, i))
	}
	for _, tc := range []struct {
		name, path, body string
		cap              float64
	}{
		{"batch 256 all hit", "/annotate/batch", `{"phrases":[` + strings.Join(phrases, ",") + `]}`, 285},
		{"single hit", "/annotate", annotateBody("2 cups chopped onion"), 11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewWithConfig(fakePipe{}, nil, Config{CacheEntries: 64 << 10})
			s.SetReady(true)
			got := serveAllocs(t, s, tc.path, tc.body)
			t.Logf("%s: %.0f allocs/request (cap %.0f)", tc.name, got, tc.cap)
			if got > tc.cap {
				t.Fatalf("%s allocates %.0f/request, cap %.0f", tc.name, got, tc.cap)
			}
		})
	}
}

// TestCachedRecordAllocs: a cache Put packs a record's fields with one
// allocation. A hit's unpack allocates nothing, which
// TestAnnotateHitAllocCap's caps pin.
func TestCachedRecordAllocs(t *testing.T) {
	rec := core.IngredientRecord{Phrase: "2 cups chopped onion", Name: "onion", State: "chopped", Quantity: "2", Unit: "cups"}
	if n := testing.AllocsPerRun(100, func() { _ = packRecord(&rec) }); n != 1 {
		t.Errorf("packRecord: %.0f allocs, want 1", n)
	}
}
