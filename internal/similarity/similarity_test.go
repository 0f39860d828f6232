package similarity

import (
	"math"
	"testing"

	"recipemodel/internal/core"
	"recipemodel/internal/relations"
)

func model(names []string, procs []string) *core.RecipeModel {
	m := &core.RecipeModel{}
	for _, n := range names {
		m.Ingredients = append(m.Ingredients, core.IngredientRecord{Name: n})
	}
	for i, p := range procs {
		m.Events = append(m.Events, core.Event{Step: i, Relation: relations.Relation{Process: p}})
	}
	return m
}

func TestScoreIdentical(t *testing.T) {
	a := model([]string{"tomato", "basil"}, []string{"chop", "mix", "bake"})
	if s := Score(a, a, DefaultWeights); math.Abs(s-1) > 1e-9 {
		t.Fatalf("self-similarity = %v", s)
	}
}

func TestScoreDisjoint(t *testing.T) {
	a := model([]string{"tomato"}, []string{"chop"})
	b := model([]string{"beef"}, []string{"grill"})
	if s := Score(a, b, DefaultWeights); s != 0 {
		t.Fatalf("disjoint similarity = %v", s)
	}
}

func TestScorePartial(t *testing.T) {
	a := model([]string{"tomato", "basil"}, []string{"chop", "mix"})
	b := model([]string{"tomato", "mozzarella"}, []string{"chop", "bake"})
	s := Score(a, b, DefaultWeights)
	if s <= 0 || s >= 1 {
		t.Fatalf("partial similarity = %v", s)
	}
}

func TestScoreSymmetric(t *testing.T) {
	a := model([]string{"tomato", "basil"}, []string{"chop", "mix"})
	b := model([]string{"tomato"}, []string{"mix", "chop"})
	if Score(a, b, DefaultWeights) != Score(b, a, DefaultWeights) {
		t.Fatal("similarity not symmetric")
	}
}

func TestSequenceFacetDistinguishesOrder(t *testing.T) {
	// same process sets, different order → sequence facet differs.
	a := model([]string{"x"}, []string{"chop", "boil", "serve"})
	b := model([]string{"x"}, []string{"chop", "boil", "serve"})
	c := model([]string{"x"}, []string{"serve", "boil", "chop"})
	w := Weights{Sequence: 1}
	if Score(a, b, w) != 1 {
		t.Fatalf("identical order score = %v", Score(a, b, w))
	}
	if Score(a, c, w) >= 1 {
		t.Fatalf("reversed order should differ: %v", Score(a, c, w))
	}
}

func TestMostSimilarRanking(t *testing.T) {
	q := model([]string{"tomato", "basil", "mozzarella"}, []string{"slice", "layer"})
	cands := []*core.RecipeModel{
		model([]string{"beef", "onion"}, []string{"grill"}),
		model([]string{"tomato", "basil"}, []string{"slice", "layer"}),
		model([]string{"tomato"}, []string{"chop"}),
	}
	ranked := MostSimilar(q, cands, DefaultWeights)
	if ranked[0].Index != 1 {
		t.Fatalf("best match = %d", ranked[0].Index)
	}
	if ranked[len(ranked)-1].Score > ranked[0].Score {
		t.Fatal("ranking not descending")
	}
}

func TestMostSimilarEmpty(t *testing.T) {
	if got := MostSimilar(model(nil, nil), nil, DefaultWeights); len(got) != 0 {
		t.Fatal("empty candidates")
	}
	// two empty models: all facets degenerate to 0.
	if s := Score(model(nil, nil), model(nil, nil), DefaultWeights); s != 0 {
		t.Fatalf("empty similarity = %v", s)
	}
}

func TestLearnWeightsIDF(t *testing.T) {
	// salt in every recipe; saffron in one.
	var models []*core.RecipeModel
	for i := 0; i < 10; i++ {
		names := []string{"salt"}
		if i == 0 {
			names = append(names, "saffron")
		}
		models = append(models, model(names, nil))
	}
	w := LearnWeights(models)
	if w.IDF("saffron") <= w.IDF("salt") {
		t.Fatalf("rare ingredient should outweigh common: %v vs %v",
			w.IDF("saffron"), w.IDF("salt"))
	}
	if w.IDF("never-seen") < w.IDF("saffron") {
		t.Fatal("unseen names should get the maximum weight")
	}
}

func TestWeightedScorePrefersRareOverlap(t *testing.T) {
	var corpus []*core.RecipeModel
	for i := 0; i < 20; i++ {
		corpus = append(corpus, model([]string{"salt", "water"}, []string{"boil"}))
	}
	corpus = append(corpus, model([]string{"saffron", "salt"}, []string{"boil"}))
	cw := LearnWeights(corpus)

	q := model([]string{"saffron", "salt"}, []string{"boil"})
	shareRare := model([]string{"saffron", "water"}, []string{"boil"})
	shareCommon := model([]string{"salt", "water"}, []string{"boil"})
	wts := Weights{Ingredients: 1}
	if WeightedScore(q, shareRare, cw, wts) <= WeightedScore(q, shareCommon, cw, wts) {
		t.Fatal("sharing saffron should score higher than sharing salt")
	}
	// unweighted Jaccard cannot tell them apart.
	if Score(q, shareRare, wts) != Score(q, shareCommon, wts) {
		t.Fatal("fixture should be Jaccard-symmetric")
	}
}
