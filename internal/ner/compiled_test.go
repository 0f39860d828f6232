package ner

import (
	"math/rand"
	"strings"
	"testing"

	"recipemodel/internal/crf"
)

// trainedPair returns the same trained ingredient model as a compiled
// tagger and an untouched legacy tagger.
func trainedPair(t *testing.T) (compiledTg, legacyTg *Tagger) {
	t.Helper()
	tg := Train(tinyCorpus(), IngredientTypes, NewIngredientExtractor(DefaultFeatureOptions),
		TrainConfig{Epochs: 8, Seed: 1})
	legacy := FromModel(tg.Model, tg.Extract)
	if err := tg.CompileFor(TaskIngredient, DefaultFeatureOptions); err != nil {
		t.Fatalf("CompileFor: %v", err)
	}
	if !tg.Compiled() {
		t.Fatal("tagger not compiled after CompileFor")
	}
	return tg, legacy
}

// equivalencePhrases mix clean recipe text with dirty input: empty
// tokens, lone brackets, non-ASCII, invalid UTF-8, multiword
// gazetteer hits, and inflected forms.
var equivalencePhrases = [][]string{
	{"2", "cups", "chopped", "flour"},
	{"1/2", "teaspoon", "fresh", "pepper"},
	{"1", "(", "8", "ounce", ")", "can", "tomato"},
	{"2", "tablespoons", "olive", "oil"},
	{"tomatoes"},
	{"", "cups", ""},
	{"½", "cup", "half-and-half"},
	{"1", "POUND", "Chicken", "Breasts"},
	{"\xff\xfe", "cups", "x\x00y"},
	{"(", "(", ")", "]", "[", "sugar", ")"},
	{"one", "dozen", "eggs", ",", "beaten"},
	{"3", "cups", "milk", "warmed", "slowly", "over", "low", "heat"},
}

func TestCompiledTaggerEquivalence(t *testing.T) {
	compiled, legacy := trainedPair(t)
	for _, toks := range equivalencePhrases {
		wantTags := legacy.PredictTags(toks)
		gotTags := compiled.PredictTags(toks)
		if strings.Join(gotTags, " ") != strings.Join(wantTags, " ") {
			t.Errorf("PredictTags(%q): got %v, want %v", toks, gotTags, wantTags)
		}
		wantSpans := legacy.Predict(toks)
		gotSpans := compiled.Predict(toks)
		if len(gotSpans) != len(wantSpans) {
			t.Fatalf("Predict(%q): got %v, want %v", toks, gotSpans, wantSpans)
		}
		for i := range wantSpans {
			if gotSpans[i] != wantSpans[i] {
				t.Errorf("Predict(%q)[%d]: got %v, want %v", toks, i, gotSpans[i], wantSpans[i])
			}
		}
	}
}

// TestCompiledTaggerRandomized fuzzes token sequences from a mixed
// clean/dirty vocabulary and checks tag-level equivalence.
func TestCompiledTaggerRandomized(t *testing.T) {
	compiled, legacy := trainedPair(t)
	vocab := []string{
		"1", "2", "1/2", "½", "cup", "cups", "teaspoon", "chopped",
		"fresh", "flour", "salt", "olive", "oil", "tomato", "tomatoes",
		"(", ")", "[", "]", ",", "", "Butter", "HALF-AND-HALF",
		"\xff", "sauté", "über", "egg", "whites", "dozen",
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		toks := make([]string, n)
		for i := range toks {
			toks[i] = vocab[rng.Intn(len(vocab))]
		}
		want := legacy.PredictTags(toks)
		got := compiled.PredictTags(toks)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("trial %d: PredictTags(%q): got %v, want %v", trial, toks, got, want)
		}
	}
}

func TestCompiledInstructionTagger(t *testing.T) {
	mk := func(text string, spans ...Span) Sentence {
		return Sentence{Tokens: strings.Fields(text), Spans: spans}
	}
	corpus := []Sentence{
		mk("preheat the oven", Span{0, 1, Process}, Span{2, 3, Utensil}),
		mk("boil the milk", Span{0, 1, Process}, Span{2, 3, Ingredient}),
		mk("stir in the flour", Span{0, 1, Process}, Span{3, 4, Ingredient}),
		mk("heat oil in a frying pan", Span{0, 1, Process}, Span{1, 2, Ingredient}, Span{4, 6, Utensil}),
		mk("bake in the oven", Span{0, 1, Process}, Span{3, 4, Utensil}),
		mk("chop the onion", Span{0, 1, Process}, Span{2, 3, Ingredient}),
	}
	tg := Train(corpus, InstructionTypes, NewInstructionExtractor(DefaultFeatureOptions),
		TrainConfig{Epochs: 8, Seed: 3})
	legacy := FromModel(tg.Model, tg.Extract)
	if err := tg.CompileFor(TaskInstruction, DefaultFeatureOptions); err != nil {
		t.Fatalf("CompileFor: %v", err)
	}
	phrases := [][]string{
		{"preheat", "the", "oven"},
		{"boil", "milk", "in", "a", "frying", "pan"},
		{"the", "oven", "preheat"}, // imperative position moved
		{"stir", "(", "gently", ")", "in", "flour"},
	}
	for _, toks := range phrases {
		want := legacy.PredictTags(toks)
		got := tg.PredictTags(toks)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("PredictTags(%q): got %v, want %v", toks, got, want)
		}
	}
}

// TestCompileForRejectsWrongOpts pins the canary self-check: compiling
// with feature options that differ from training must fail loudly, not
// silently change predictions.
func TestCompileForRejectsWrongOpts(t *testing.T) {
	tg := Train(tinyCorpus(), IngredientTypes, NewIngredientExtractor(DefaultFeatureOptions),
		TrainConfig{Epochs: 2, Seed: 1})
	err := tg.CompileFor(TaskIngredient, FeatureOptions{Gazetteers: true, Lemmas: false})
	if err == nil {
		t.Fatal("CompileFor with mismatched Lemmas option succeeded, want canary error")
	}
	if tg.Compiled() {
		t.Fatal("failed CompileFor must leave the tagger on the legacy path")
	}
	err = tg.CompileFor(TaskIngredient, FeatureOptions{Gazetteers: false, Lemmas: true})
	if err == nil {
		t.Fatal("CompileFor with mismatched Gazetteers option succeeded, want canary error")
	}
}

// TestCompileForRejectsBIOLabels: the compiled span assembly reads IO
// labels only, so a model over any other label set stays on the
// legacy path, which decodes it through BIOToSpans.
func TestCompileForRejectsBIOLabels(t *testing.T) {
	m := crf.New([]string{Outside, "B-" + Name, "I-" + Name})
	tg := FromModel(m, NewIngredientExtractor(DefaultFeatureOptions))
	err := tg.CompileFor(TaskIngredient, DefaultFeatureOptions)
	if err == nil || !strings.Contains(err.Error(), `"B-NAME"`) {
		t.Fatalf("CompileFor over a BIO label set: err = %v, want one naming B-NAME", err)
	}
	if tg.Compiled() {
		t.Fatal("failed CompileFor must leave the tagger on the legacy path")
	}
}

func TestCompileForRequiresModelAndExtractor(t *testing.T) {
	if err := (&Tagger{}).CompileFor(TaskIngredient, DefaultFeatureOptions); err == nil {
		t.Error("CompileFor on empty tagger succeeded")
	}
	tg := &Tagger{Model: Train(tinyCorpus()[:3], IngredientTypes,
		NewIngredientExtractor(DefaultFeatureOptions), TrainConfig{Epochs: 1, Seed: 1}).Model}
	if err := tg.CompileFor(TaskIngredient, DefaultFeatureOptions); err == nil {
		t.Error("CompileFor without extractor succeeded")
	}
}

func BenchmarkPredictLegacy(b *testing.B) {
	tg := Train(tinyCorpus(), IngredientTypes, NewIngredientExtractor(DefaultFeatureOptions),
		TrainConfig{Epochs: 8, Seed: 1})
	toks := []string{"2", "cups", "chopped", "flour", "(", "sifted", ")"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg.Predict(toks)
	}
}

func BenchmarkPredictCompiled(b *testing.B) {
	tg := Train(tinyCorpus(), IngredientTypes, NewIngredientExtractor(DefaultFeatureOptions),
		TrainConfig{Epochs: 8, Seed: 1})
	if err := tg.CompileFor(TaskIngredient, DefaultFeatureOptions); err != nil {
		b.Fatal(err)
	}
	toks := []string{"2", "cups", "chopped", "flour", "(", "sifted", ")"}
	spans := make([]Span, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spans = tg.AppendPredict(spans[:0], toks)
	}
}
