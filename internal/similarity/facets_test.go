package similarity

import (
	"math"
	"testing"

	"recipemodel/internal/core"
	"recipemodel/internal/goldmodel"
)

// edgeModels are hand-built documents at the boundaries of the facet
// definitions.
func edgeModels() []*core.RecipeModel {
	return []*core.RecipeModel{
		model([]string{"Salt", "salt", "SALT", "Black Pepper", "black pepper"}, []string{"Mix", "mix"}),
		model([]string{"", "salt", ""}, []string{"boil"}),
		model([]string{"saffron", "Salt"}, []string{"", "mix", "mix", "", "Mix", "bake"}),
		model([]string{"rice"}, []string{"a→b", "c"}),
		model([]string{"rice"}, []string{"a", "b→c"}),
		model(nil, []string{"boil", "serve"}),
		model([]string{"salt", "water"}, nil),
		model(nil, nil),
	}
}

// requireBitEqual fails unless WeightedScore and the map-based
// reference agree to the last bit on a against b.
func requireBitEqual(t *testing.T, a, b *core.RecipeModel, cw *CorpusWeights) {
	t.Helper()
	got := WeightedScore(a, b, cw, DefaultWeights)
	want := weightedScoreMaps(a, b, cw, DefaultWeights)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("score %v (%#x) != reference %v (%#x)\n  a=%+v\n  b=%+v",
			got, math.Float64bits(got), want, math.Float64bits(want), a, b)
	}
}

// TestWeightedScoreMatchesReference pins the precomputed-facet path
// bit-identical to the map-based reference on every ordered pair of a
// learned corpus: gold recipes from both sources plus the edge docs.
func TestWeightedScoreMatchesReference(t *testing.T) {
	corpus := append(goldmodel.Corpus(160, 3), edgeModels()...)
	cw := LearnWeights(corpus)
	if len(cw.byModel) != len(corpus) {
		t.Fatalf("learned %d facet sets for %d models", len(cw.byModel), len(corpus))
	}
	for _, a := range corpus {
		for _, b := range corpus {
			requireBitEqual(t, a, b, cw)
		}
	}
}

// TestWeightedScoreOutsideCorpus: models the weights never saw — one
// with an unseen ingredient name, and a copy of every corpus model —
// take the map-based path, and the copies score exactly like the
// learned originals.
func TestWeightedScoreOutsideCorpus(t *testing.T) {
	corpus := append(goldmodel.Corpus(40, 5), edgeModels()...)
	cw := LearnWeights(corpus)
	unseen := model([]string{"Dragonfruit", "salt"}, []string{"chop", "mix"})
	for _, c := range corpus {
		requireBitEqual(t, unseen, c, cw)
		requireBitEqual(t, c, unseen, cw)
	}
	for _, a := range corpus {
		clone := *a
		for _, b := range corpus {
			got := WeightedScore(&clone, b, cw, DefaultWeights)
			want := WeightedScore(a, b, cw, DefaultWeights)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("copy scores %v, learned original %v\n  a=%+v\n  b=%+v", got, want, a, b)
			}
		}
	}
}

// TestWeightedScoreLearnedPairAllocs: scoring two learned models
// allocates nothing.
func TestWeightedScoreLearnedPairAllocs(t *testing.T) {
	corpus := goldmodel.Corpus(20, 7)
	cw := LearnWeights(corpus)
	a, b := corpus[0], corpus[1]
	if n := testing.AllocsPerRun(100, func() { WeightedScore(a, b, cw, DefaultWeights) }); n != 0 {
		t.Fatalf("WeightedScore on a learned pair: %v allocs, want 0", n)
	}
}

func BenchmarkWeightedScore(b *testing.B) {
	corpus := goldmodel.Corpus(100, 9)
	cw := LearnWeights(corpus)
	outside := goldmodel.Corpus(1, 11)[0]
	for _, c := range []struct {
		name string
		a, b *core.RecipeModel
	}{
		{"learned", corpus[0], corpus[1]},
		{"out-of-corpus", outside, corpus[1]},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				WeightedScore(c.a, c.b, cw, DefaultWeights)
			}
		})
	}
}

func BenchmarkLearnWeights(b *testing.B) {
	corpus := goldmodel.Corpus(2500, 13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LearnWeights(corpus)
	}
}
