package ner

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestIOLabels(t *testing.T) {
	got := IOLabels([]string{"NAME", "UNIT"})
	want := []string{"O", "I-NAME", "I-UNIT"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for _, l := range got {
		if !IsIOLabel(l) {
			t.Errorf("IsIOLabel(%q) = false", l)
		}
	}
	for _, l := range []string{"B-NAME", "I-", "", "NAME", "o"} {
		if IsIOLabel(l) {
			t.Errorf("IsIOLabel(%q) = true", l)
		}
	}
}

func TestSpansToIO(t *testing.T) {
	cases := []struct {
		n     int
		spans []Span
		want  []string
	}{
		{6, []Span{
			{Start: 0, End: 1, Type: Quantity},
			{Start: 1, End: 2, Type: Unit},
			{Start: 3, End: 5, Type: Name},
		}, []string{"I-QUANTITY", "I-UNIT", "O", "I-NAME", "I-NAME", "O"}},
		{4, []Span{
			{Start: 0, End: 3, Type: Name},
			{Start: 1, End: 2, Type: Unit}, // overlaps, must lose
		}, []string{"I-NAME", "I-NAME", "I-NAME", "O"}},
	}
	for _, c := range cases {
		if got := SpansToIO(c.n, c.spans); !reflect.DeepEqual(got, c.want) {
			t.Errorf("SpansToIO(%d, %v) = %v, want %v", c.n, c.spans, got, c.want)
		}
	}
}

func TestSpansToBIO(t *testing.T) {
	tags := SpansToBIO(6, []Span{
		{Start: 0, End: 1, Type: Quantity},
		{Start: 1, End: 2, Type: Unit},
		{Start: 3, End: 5, Type: Name},
	})
	want := []string{"B-QUANTITY", "B-UNIT", "O", "B-NAME", "I-NAME", "O"}
	if !reflect.DeepEqual(tags, want) {
		t.Fatalf("got %v want %v", tags, want)
	}
}

func TestSpansToBIOOverlap(t *testing.T) {
	tags := SpansToBIO(4, []Span{
		{Start: 0, End: 3, Type: Name},
		{Start: 1, End: 2, Type: Unit}, // overlaps, must lose
	})
	want := []string{"B-NAME", "I-NAME", "I-NAME", "O"}
	if !reflect.DeepEqual(tags, want) {
		t.Fatalf("got %v want %v", tags, want)
	}
}

func TestSpansToBIOOutOfRange(t *testing.T) {
	tags := SpansToBIO(2, []Span{
		{Start: -1, End: 1, Type: Name},
		{Start: 1, End: 5, Type: Unit},
		{Start: 1, End: 1, Type: Size},
	})
	want := []string{"O", "O"}
	if !reflect.DeepEqual(tags, want) {
		t.Fatalf("got %v want %v", tags, want)
	}
}

func TestBIOToSpans(t *testing.T) {
	spans := BIOToSpans([]string{"B-QUANTITY", "B-UNIT", "O", "B-NAME", "I-NAME", "O"})
	want := []Span{
		{Start: 0, End: 1, Type: Quantity},
		{Start: 1, End: 2, Type: Unit},
		{Start: 3, End: 5, Type: Name},
	}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("got %v want %v", spans, want)
	}
}

func TestBIOToSpansMalformed(t *testing.T) {
	// orphan I- opens a new span; type change inside I- splits.
	spans := BIOToSpans([]string{"I-NAME", "I-UNIT", "I-UNIT"})
	want := []Span{
		{Start: 0, End: 1, Type: Name},
		{Start: 1, End: 3, Type: Unit},
	}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("got %v want %v", spans, want)
	}
}

func TestBIOToSpansTrailingEntity(t *testing.T) {
	spans := BIOToSpans([]string{"O", "B-NAME", "I-NAME"})
	want := []Span{{Start: 1, End: 3, Type: Name}}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("got %v want %v", spans, want)
	}
}

// Property: SpansToBIO → BIOToSpans round-trips for any set of
// non-overlapping in-range spans.
func TestBIORoundTripProperty(t *testing.T) {
	types := []string{Name, Unit, Quantity}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		var spans []Span
		pos := 0
		for pos < n {
			if rng.Float64() < 0.4 {
				length := 1 + rng.Intn(3)
				if pos+length > n {
					length = n - pos
				}
				spans = append(spans, Span{Start: pos, End: pos + length, Type: types[rng.Intn(len(types))]})
				pos += length
			} else {
				pos++
			}
		}
		got := BIOToSpans(SpansToBIO(n, spans))
		if len(got) != len(spans) {
			return false
		}
		for i := range got {
			if got[i] != spans[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: BIOToSpans(SpansToIO) returns any set of non-overlapping
// in-range spans when no two spans of one type touch, and merges each
// run of touching same-type spans into one span when they do — the
// one case IO cannot represent.
func TestIORoundTripProperty(t *testing.T) {
	types := []string{Name, Unit, Quantity}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		var spans, want []Span
		pos := 0
		for pos < n {
			if rng.Float64() < 0.5 {
				length := 1 + rng.Intn(3)
				if pos+length > n {
					length = n - pos
				}
				s := Span{Start: pos, End: pos + length, Type: types[rng.Intn(len(types))]}
				spans = append(spans, s)
				if last := len(want) - 1; last >= 0 && want[last].End == s.Start && want[last].Type == s.Type {
					want[last].End = s.End
				} else {
					want = append(want, s)
				}
				pos += length
			} else {
				pos++
			}
		}
		got := BIOToSpans(SpansToIO(n, spans))
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// tinyCorpus builds a small deterministic labeled corpus of ingredient
// phrases for end-to-end tagger tests.
func tinyCorpus() []Sentence {
	mk := func(text string, spans ...Span) Sentence {
		return Sentence{Tokens: strings.Fields(text), Spans: spans}
	}
	var out []Sentence
	patterns := []struct {
		qty, unit, name string
	}{
		{"1", "cup", "sugar"}, {"2", "cups", "flour"},
		{"3", "teaspoons", "salt"}, {"1/2", "teaspoon", "pepper"},
		{"2", "tablespoons", "butter"}, {"1", "pound", "chicken"},
		{"4", "ounces", "cheese"}, {"1", "pinch", "nutmeg"},
		{"2", "cloves", "garlic"}, {"1", "can", "tomato"},
		{"3", "cups", "milk"}, {"1", "cup", "rice"},
		{"2", "sprigs", "thyme"}, {"1", "stalk", "celery"},
		{"5", "ounces", "spinach"}, {"1", "head", "lettuce"},
	}
	for _, p := range patterns {
		out = append(out, mk(p.qty+" "+p.unit+" "+p.name,
			Span{0, 1, Quantity}, Span{1, 2, Unit}, Span{2, 3, Name}))
		out = append(out, mk(p.qty+" "+p.unit+" chopped "+p.name,
			Span{0, 1, Quantity}, Span{1, 2, Unit}, Span{2, 3, State}, Span{3, 4, Name}))
		out = append(out, mk(p.qty+" "+p.unit+" fresh "+p.name,
			Span{0, 1, Quantity}, Span{1, 2, Unit}, Span{2, 3, DryFresh}, Span{3, 4, Name}))
	}
	return out
}

func TestTaggerLearnsTinyCorpus(t *testing.T) {
	corpus := tinyCorpus()
	tg := Train(corpus, IngredientTypes, NewIngredientExtractor(DefaultFeatureOptions),
		TrainConfig{Epochs: 8, Seed: 1})

	if want := IOLabels(IngredientTypes); !reflect.DeepEqual(tg.Labels(), want) || !reflect.DeepEqual(tg.Model.Labels, want) {
		t.Fatalf("labels %v, model labels %v, want %v", tg.Labels(), tg.Model.Labels, want)
	}

	// in-sample shape
	spans := tg.Predict(strings.Fields("2 cups chopped flour"))
	want := []Span{{0, 1, Quantity}, {1, 2, Unit}, {2, 3, State}, {3, 4, Name}}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("got %v want %v", spans, want)
	}

	// generalization to an unseen combination
	spans = tg.Predict(strings.Fields("7 cups fresh basil"))
	if len(spans) != 4 || spans[0].Type != Quantity || spans[3].Type != Name {
		t.Fatalf("unseen combination: %v", spans)
	}
}

func TestTaggerEmptyInput(t *testing.T) {
	tg := Train(tinyCorpus(), IngredientTypes, NewIngredientExtractor(DefaultFeatureOptions),
		TrainConfig{Epochs: 2, Seed: 1})
	if got := tg.Predict(nil); got != nil {
		t.Fatalf("Predict(nil) = %v", got)
	}
	if got := tg.PredictTags(nil); got != nil {
		t.Fatalf("PredictTags(nil) = %v", got)
	}
}

func TestTrainSkipsEmptySentences(t *testing.T) {
	corpus := append(tinyCorpus(), Sentence{})
	tg := Train(corpus, IngredientTypes, NewIngredientExtractor(DefaultFeatureOptions),
		TrainConfig{Epochs: 2, Seed: 1})
	if tg == nil {
		t.Fatal("nil tagger")
	}
}

func TestInstructionExtractorFeatures(t *testing.T) {
	ex := NewInstructionExtractor(DefaultFeatureOptions)
	fs := ex(strings.Fields("boil the water in a pot"), 0)
	joined := strings.Join(fs, " ")
	if !strings.Contains(joined, "imperative") {
		t.Error("missing imperative feature at position 0")
	}
	if !strings.Contains(joined, "gaz=tech") {
		t.Error("missing technique gazetteer feature for 'boil'")
	}
	fs = ex(strings.Fields("boil the water in a pot"), 5)
	if !strings.Contains(strings.Join(fs, " "), "gaz=utensil") {
		t.Error("missing utensil gazetteer feature for 'pot'")
	}
}

func TestIngredientExtractorGazetteerToggle(t *testing.T) {
	on := NewIngredientExtractor(FeatureOptions{Gazetteers: true, Lemmas: true})
	off := NewIngredientExtractor(FeatureOptions{Gazetteers: false, Lemmas: true})
	tokens := strings.Fields("1 cup sugar")
	fsOn := strings.Join(on(tokens, 2), " ")
	fsOff := strings.Join(off(tokens, 2), " ")
	if !strings.Contains(fsOn, "gaz=ingr") {
		t.Error("gazetteer features missing when enabled")
	}
	if strings.Contains(fsOff, "gaz=") {
		t.Error("gazetteer features present when disabled")
	}
}

func TestMultiwordGazetteerFeature(t *testing.T) {
	ex := NewIngredientExtractor(DefaultFeatureOptions)
	tokens := strings.Fields("2 tablespoons olive oil")
	for _, i := range []int{2, 3} {
		if !strings.Contains(strings.Join(ex(tokens, i), " "), "gazmw=ingr") {
			t.Errorf("token %d of 'olive oil' missing multiword feature", i)
		}
	}
}

func TestParenthesisFeature(t *testing.T) {
	ex := NewIngredientExtractor(DefaultFeatureOptions)
	tokens := strings.Fields("1 ( 8 ounce ) package cream cheese")
	if !strings.Contains(strings.Join(ex(tokens, 2), " "), "inparen") {
		t.Error("token inside parens should have inparen")
	}
	if strings.Contains(strings.Join(ex(tokens, 5), " "), "inparen") {
		t.Error("token after parens should not have inparen")
	}
}

func TestNumericFeature(t *testing.T) {
	ex := NewIngredientExtractor(DefaultFeatureOptions)
	if !strings.Contains(strings.Join(ex([]string{"1 1/2", "cups"}, 0), " "), "isnum") {
		t.Error("mixed number should be isnum")
	}
}
