package rules

import (
	"errors"
	"strings"
	"testing"

	"recipemodel/internal/core"
	"recipemodel/internal/faults"
	"recipemodel/internal/ner"
	"recipemodel/internal/quarantine"
)

func TestAnnotateRecords(t *testing.T) {
	tg := New()
	cases := []struct {
		phrase string
		want   core.IngredientRecord
		conf   float64 // minimum acceptable confidence
	}{
		{
			phrase: "2 cups onion, finely chopped",
			want: core.IngredientRecord{
				Phrase: "2 cups onion, finely chopped",
				Name:   "onion", Quantity: "2", Unit: "cups", State: "finely chopped",
			},
			conf: 1,
		},
		{
			phrase: "1 tbsp butter",
			want: core.IngredientRecord{
				Phrase: "1 tbsp butter",
				Name:   "butter", Quantity: "1", Unit: "tbsp",
			},
			conf: 1,
		},
		{
			// "clove" is in both the unit and ingredient lexicons: the
			// reading after a quantity is the unit, the trailing word
			// the name.
			phrase: "2 cloves garlic",
			want: core.IngredientRecord{
				Phrase: "2 cloves garlic",
				Name:   "garlic", Quantity: "2", Unit: "cloves",
			},
			conf: 1,
		},
		{
			// Mixed number stays one quantity token; multiword
			// hyphenated ingredient matches whole.
			phrase: "1 1/2 cups all-purpose flour",
			want: core.IngredientRecord{
				Phrase: "1 1/2 cups all-purpose flour",
				Name:   "all-purpose flour", Quantity: "1 1/2", Unit: "cups",
			},
			conf: 1,
		},
		{
			phrase: "fresh ground black pepper",
			want: core.IngredientRecord{
				Phrase: "fresh ground black pepper",
				Name:   "black pepper", State: "ground", DryFresh: "fresh",
			},
			conf: 1,
		},
		{
			// Plural ingredient folds onto its singular lexicon term
			// and the record head noun is lemmatized like the CRF path.
			phrase: "3 large tomatoes",
			want: core.IngredientRecord{
				Phrase: "3 large tomatoes",
				Name:   "tomato", Quantity: "3", Size: "large",
			},
			conf: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.phrase, func(t *testing.T) {
			rec, conf, err := tg.Annotate(tc.phrase)
			if err != nil {
				t.Fatalf("err = %v", err)
			}
			if rec != tc.want {
				t.Fatalf("record = %+v\nwant     %+v", rec, tc.want)
			}
			if conf < tc.conf {
				t.Fatalf("confidence = %v, want >= %v", conf, tc.conf)
			}
		})
	}
}

// TestAnnotateCaseAndUnicode: tagging is case-insensitive and the
// sanitizer runs the same policy as the CRF path (NBSP collapses).
func TestAnnotateCaseAndUnicode(t *testing.T) {
	tg := New()
	rec, conf, err := tg.Annotate("2 Cups ONION")
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if rec.Name != "onion" || rec.Unit != "cups" || rec.Quantity != "2" {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Phrase != "2 Cups ONION" {
		t.Fatalf("raw phrase not echoed: %q", rec.Phrase)
	}
	if conf != 1 {
		t.Fatalf("confidence = %v", conf)
	}
}

// TestAnnotateConfidencePartial: uncovered content tokens lower the
// score; a tagging with no NAME span scores zero outright.
func TestAnnotateConfidencePartial(t *testing.T) {
	tg := New()
	_, conf, err := tg.Annotate("2 cups glorbified onion")
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if conf <= 0 || conf >= 1 {
		t.Fatalf("confidence = %v, want in (0, 1) with one unknown token", conf)
	}
	_, conf, err = tg.Annotate("2 cups of nothing recognizable here")
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if conf != 0 {
		t.Fatalf("confidence without a NAME span = %v, want 0", conf)
	}
}

// TestAnnotateRejections: the rules tier rejects poison identically to
// the CRF path — same typed quarantine codes, same messages — so a
// degraded server's 422s are indistinguishable from healthy ones.
func TestAnnotateRejections(t *testing.T) {
	tg := New()
	if _, _, err := tg.Annotate("   "); !errors.Is(err, quarantine.ErrEmptyAfterClean) {
		t.Fatalf("whitespace phrase: err = %v", err)
	}
	if _, _, err := tg.Annotate(strings.Repeat("a ", 70000)); !errors.Is(err, quarantine.ErrTooLong) {
		t.Fatalf("oversized phrase: err = %v", err)
	}
	if _, _, err := tg.Annotate(strings.Repeat("word ", 600)); !errors.Is(err, quarantine.ErrTooManyTokens) {
		t.Fatalf("token-cap phrase: err = %v", err)
	}
	// Rejection equality with the CRF containment path, message and
	// all: the pre-model stages (sanitize, token caps) reject before
	// any pipeline state is touched.
	phrase := strings.Repeat("word ", 600)
	_, rerr := (*core.Pipeline)(nil).AnnotateIngredientChecked(phrase)
	_, _, terr := tg.Annotate(phrase)
	if rerr == nil || terr == nil || rerr.Error() != terr.Error() {
		t.Fatalf("rejection mismatch:\ncrf:   %v\nrules: %v", rerr, terr)
	}
}

// TestAnnotateFaultPoint: rules.annotate kills the tier on command.
func TestAnnotateFaultPoint(t *testing.T) {
	defer faults.Reset()
	boom := errors.New("rules tier down")
	disable := faults.Enable(FaultAnnotate, faults.Fault{Err: boom})
	_, _, err := New().Annotate("2 cups onion")
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected", err)
	}
	disable()
	if _, _, err := New().Annotate("2 cups onion"); err != nil {
		t.Fatalf("err after disable = %v", err)
	}
}

// TestAppendTagGreedyLeftmost pins span shapes directly, including
// the leftmost-longest interaction between overlapping lexicon terms.
func TestAppendTagGreedyLeftmost(t *testing.T) {
	tg := New()
	words := []string{"extra", "virgin", "olive", "oil"}
	spans := tg.AppendTag(nil, words)
	if len(spans) != 1 || spans[0] != (ner.Span{Start: 0, End: 4, Type: ner.Name}) {
		t.Fatalf("spans = %+v, want one 4-word NAME", spans)
	}
	// Unit tie-break flips with quantity context.
	after := tg.AppendTag(nil, []string{"1", "clove"})
	if len(after) != 2 || after[1].Type != ner.Unit {
		t.Fatalf("post-quantity clove: %+v, want UNIT", after)
	}
	alone := tg.AppendTag(nil, []string{"garlic", "clove"})
	if len(alone) == 0 || alone[0].Type != ner.Name {
		t.Fatalf("bare garlic clove: %+v, want NAME", alone)
	}
}

func BenchmarkRulesAnnotate(b *testing.B) {
	tg := New()
	phrases := []string{
		"2 cups onion, finely chopped",
		"1 1/2 tbsp extra virgin olive oil",
		"3 cloves garlic, minced",
		"fresh ground black pepper to taste",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tg.Annotate(phrases[i%len(phrases)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRulesAppendTag(b *testing.B) {
	tg := New()
	words := []string{"2", "cups", "extra", "virgin", "olive", "oil", ",", "finely", "chopped"}
	spans := make([]ner.Span, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spans = tg.AppendTag(spans[:0], words)
	}
}
