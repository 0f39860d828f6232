package index

import (
	"reflect"
	"testing"

	"recipemodel/internal/core"
	"recipemodel/internal/goldmodel"
	"recipemodel/internal/relations"
)

func corpus() []*core.RecipeModel {
	arg := func(names ...string) []relations.Argument {
		var out []relations.Argument
		for _, n := range names {
			out = append(out, relations.Argument{Text: n})
		}
		return out
	}
	return []*core.RecipeModel{
		{ // 0: fried chicken
			Cuisine: "American",
			Ingredients: []core.IngredientRecord{
				{Name: "chicken", State: "trimmed"}, {Name: "flour"}, {Name: "oil"},
			},
			Events: []core.Event{
				{Step: 0, Relation: relations.Relation{Process: "dredge", Ingredients: arg("chicken", "flour")}},
				{Step: 1, Relation: relations.Relation{Process: "fry", Ingredients: arg("chicken"), Utensils: arg("skillet")}},
			},
		},
		{ // 1: chicken soup
			Cuisine: "American",
			Ingredients: []core.IngredientRecord{
				{Name: "chicken"}, {Name: "carrot", State: "chopped"}, {Name: "celery"},
			},
			Events: []core.Event{
				{Step: 0, Relation: relations.Relation{Process: "boil", Ingredients: arg("chicken"), Utensils: arg("pot")}},
				{Step: 1, Relation: relations.Relation{Process: "add", Ingredients: arg("carrot", "celery")}},
			},
		},
		{ // 2: pasta
			Cuisine: "Italian",
			Ingredients: []core.IngredientRecord{
				{Name: "pasta"}, {Name: "tomato", State: "chopped"},
			},
			Events: []core.Event{
				{Step: 0, Relation: relations.Relation{Process: "boil", Ingredients: arg("pasta"), Utensils: arg("pot")}},
				{Step: 1, Relation: relations.Relation{Process: "toss", Ingredients: arg("tomato")}},
			},
		},
	}
}

func TestWildcardQuery(t *testing.T) {
	ix := New(corpus())
	if got := ix.Search(Query{}); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("wildcard = %v", got)
	}
	if ix.Len() != 3 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestIngredientQuery(t *testing.T) {
	ix := New(corpus())
	if got := ix.Search(Query{Ingredients: []string{"chicken"}}); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("chicken = %v", got)
	}
	if got := ix.Search(Query{Ingredients: []string{"Chicken", "carrot"}}); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("chicken+carrot = %v", got)
	}
	if got := ix.Search(Query{Ingredients: []string{"durian"}}); got != nil {
		t.Fatalf("missing term = %v", got)
	}
}

func TestProcessAndUtensilQuery(t *testing.T) {
	ix := New(corpus())
	if got := ix.Search(Query{Processes: []string{"boil"}}); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("boil = %v", got)
	}
	if got := ix.Search(Query{Processes: []string{"boil"}, Utensils: []string{"pot"}, Cuisine: "Italian"}); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("boil+pot+Italian = %v", got)
	}
}

func TestAppliedPairQuery(t *testing.T) {
	ix := New(corpus())
	// "fry applied to chicken" must hit only recipe 0 — recipe 1 has
	// chicken and recipe 2 has boiling, but only 0 fries chicken.
	got := ix.Search(Query{Applied: []Pair{{A: "fry", B: "chicken"}}})
	if !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("fry|chicken = %v", got)
	}
	if got := ix.Search(Query{Applied: []Pair{{A: "fry", B: "pasta"}}}); got != nil {
		t.Fatalf("fry|pasta = %v", got)
	}
}

func TestInStateQuery(t *testing.T) {
	ix := New(corpus())
	got := ix.Search(Query{InState: []Pair{{A: "tomato", B: "chopped"}}})
	if !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("tomato|chopped = %v", got)
	}
	got = ix.Search(Query{InState: []Pair{{A: "carrot", B: "chopped"}}})
	if !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("carrot|chopped = %v", got)
	}
}

func TestVocabulary(t *testing.T) {
	ix := New(corpus())
	if got := ix.Vocabulary("cuisine"); !reflect.DeepEqual(got, []string{"american", "italian"}) {
		t.Fatalf("cuisines = %v", got)
	}
	if got := ix.Vocabulary("process"); len(got) != 5 {
		t.Fatalf("processes = %v", got)
	}
	if ix.Vocabulary("nope") != nil {
		t.Fatal("unknown facet should be nil")
	}
}

func TestModelAccess(t *testing.T) {
	ix := New(corpus())
	hits := ix.Search(Query{Ingredients: []string{"pasta"}})
	if len(hits) != 1 || ix.Model(hits[0]).Cuisine != "Italian" {
		t.Fatalf("model access: %v", hits)
	}
}

func TestIntersect(t *testing.T) {
	if got := intersect([]int{1, 3, 5, 7}, []int{2, 3, 6, 7, 9}); !reflect.DeepEqual(got, []int{3, 7}) {
		t.Fatalf("intersect = %v", got)
	}
	if got := intersect(nil, []int{1}); got != nil {
		t.Fatalf("empty intersect = %v", got)
	}
}

// benchIndex keeps BenchmarkNew's result live.
var benchIndex *Index

// BenchmarkNew builds the index over 1,250 gold documents, the size of
// one of the default 4 query shards over a 5,000-doc corpus.
func BenchmarkNew(b *testing.B) {
	models := goldmodel.Corpus(625, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchIndex = New(models)
	}
}
