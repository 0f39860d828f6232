// The race runtime instruments allocations of its own, so
// AllocsPerRun counts are only meaningful in normal builds.
//go:build !race

package rules

import (
	"testing"

	"recipemodel/internal/ner"
)

// TestAppendTagZeroAlloc pins the hot-path contract: span matching
// over pre-lowered words allocates nothing once the span slice has
// capacity.
func TestAppendTagZeroAlloc(t *testing.T) {
	tg := New()
	words := []string{"2", "cups", "extra", "virgin", "olive", "oil", ",", "finely", "chopped"}
	spans := make([]ner.Span, 0, 16)
	allocs := testing.AllocsPerRun(200, func() {
		spans = tg.AppendTag(spans[:0], words)
	})
	if allocs != 0 {
		t.Fatalf("AppendTag allocates %.1f/op, want 0", allocs)
	}
	if len(spans) == 0 {
		t.Fatal("no spans emitted")
	}
}
