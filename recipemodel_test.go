package recipemodel

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

var (
	sharedOnce sync.Once
	sharedPipe *Pipeline
)

// pipe returns a pipeline shared across the root-package tests (the
// training cost is paid once).
func pipe(t *testing.T) *Pipeline {
	t.Helper()
	sharedOnce.Do(func() {
		p, err := NewPipeline(DefaultOptions())
		if err != nil {
			t.Fatalf("NewPipeline: %v", err)
		}
		sharedPipe = p
	})
	return sharedPipe
}

func TestNewPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(Options{}); err == nil {
		t.Fatal("zero options should error")
	}
	if _, err := NewPipeline(Options{TrainingPhrases: 10}); err == nil {
		t.Fatal("missing instruction size should error")
	}
}

func TestAnnotateIngredientPublic(t *testing.T) {
	rec := pipe(t).AnnotateIngredient("2 cups chopped onion")
	if rec.Name != "onion" || rec.State != "chopped" || rec.Quantity != "2" || rec.Unit != "cups" {
		t.Fatalf("record = %+v", rec)
	}
}

func TestModelRecipePublic(t *testing.T) {
	m := pipe(t).ModelRecipe("Pasta", "Italian",
		[]string{"1 pound spaghetti", "2 cloves garlic, minced", "salt to taste"},
		"Bring the water to a boil in a large pot. Add the spaghetti and the salt to the pot. Drain and serve.")
	if len(m.Ingredients) != 3 {
		t.Fatalf("ingredients = %d", len(m.Ingredients))
	}
	if len(m.Instructions) != 3 {
		t.Fatalf("instructions = %v", m.Instructions)
	}
	if len(m.Events) == 0 {
		t.Fatal("no events")
	}
	// the homograph "cloves" must be a UNIT here.
	if m.Ingredients[1].Unit != "cloves" || m.Ingredients[1].Name != "garlic" {
		t.Fatalf("clove homograph: %+v", m.Ingredients[1])
	}
}

func TestAnnotateInstructionPublic(t *testing.T) {
	spans, tree, rels := pipe(t).AnnotateInstruction("Bring the water to a boil in a large pot.")
	if len(spans) == 0 || tree.RootIndex() < 0 || len(rels) == 0 {
		t.Fatalf("spans=%d root=%d rels=%d", len(spans), tree.RootIndex(), len(rels))
	}
}

func TestEstimateNutritionPublic(t *testing.T) {
	p := pipe(t)
	m := p.ModelRecipe("Sweet", "", []string{"100 grams sugar", "100 grams butter"}, "Mix the sugar and the butter in a bowl.")
	profile, resolved := p.EstimateNutrition(m)
	if resolved != 2 {
		t.Fatalf("resolved = %d (%+v)", resolved, m.Ingredients)
	}
	if profile.Calories < 900 || profile.Calories > 1300 {
		t.Fatalf("calories = %v", profile.Calories)
	}
	if !strings.Contains(profile.String(), "kcal") {
		t.Fatal("profile string")
	}
}

func TestSimilarityPublic(t *testing.T) {
	p := pipe(t)
	a := p.ModelRecipe("A", "", []string{"2 cups flour", "1 cup sugar"}, "Mix the flour and the sugar in a bowl. Bake for 30 minutes.")
	b := p.ModelRecipe("B", "", []string{"2 cups flour", "1 cup sugar"}, "Mix the flour and the sugar in a bowl. Bake for 30 minutes.")
	c := p.ModelRecipe("C", "", []string{"1 pound beef"}, "Grill the beef for 10 minutes.")
	if Similarity(a, b) <= Similarity(a, c) {
		t.Fatalf("identical recipes should outscore unrelated: %v vs %v",
			Similarity(a, b), Similarity(a, c))
	}
	ranked := MostSimilar(a, []*RecipeModel{c, b})
	if ranked[0].Index != 1 {
		t.Fatalf("ranking = %+v", ranked)
	}
}

func TestSyntheticRecipes(t *testing.T) {
	rs := SyntheticRecipes(6, 42)
	if len(rs) != 6 {
		t.Fatalf("recipes = %d", len(rs))
	}
	for _, r := range rs {
		if r.Title == "" || len(r.IngredientLines) == 0 || r.Instructions == "" {
			t.Fatalf("incomplete recipe: %+v", r)
		}
	}
	again := SyntheticRecipes(6, 42)
	if again[0].Title != rs[0].Title {
		t.Fatal("not deterministic")
	}
}

func TestEndToEndOnSynthetic(t *testing.T) {
	p := pipe(t)
	for _, r := range SyntheticRecipes(10, 7) {
		m := p.ModelRecipe(r.Title, r.Cuisine, r.IngredientLines, r.Instructions)
		if len(m.Ingredients) != len(r.IngredientLines) {
			t.Fatalf("%s: %d records for %d lines", r.Title, len(m.Ingredients), len(r.IngredientLines))
		}
		named := 0
		for _, rec := range m.Ingredients {
			if rec.Name != "" {
				named++
			}
		}
		if named < len(m.Ingredients)/2 {
			t.Fatalf("%s: only %d/%d ingredients named", r.Title, named, len(m.Ingredients))
		}
		if len(m.Events) == 0 {
			t.Fatalf("%s: no events", r.Title)
		}
	}
}

// TestSaveDeterministic: two Saves of one pipeline give the same
// bytes, and so do two trainings with equal Options. Both run in one
// process: gob numbers types in the order a process first encodes
// them, so another process may write different, equally decodable
// bytes.
func TestSaveDeterministic(t *testing.T) {
	save := func(p *Pipeline) []byte {
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	p := pipe(t)
	if !bytes.Equal(save(p), save(p)) {
		t.Fatal("two Saves of one pipeline differ")
	}
	opts := Options{Seed: 5, TrainingPhrases: 300, TrainingInstructions: 150, Epochs: 2}
	a, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(save(a), save(b)) {
		t.Fatal("two trainings with equal Options saved different bundles")
	}
}

func TestSaveLoadPipeline(t *testing.T) {
	p := pipe(t)
	var buf strings.Builder
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPipeline(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	phrase := "1 sheet frozen puff pastry (thawed)"
	a := p.AnnotateIngredient(phrase)
	b := loaded.AnnotateIngredient(phrase)
	if a != b {
		t.Fatalf("round trip changed annotation: %+v vs %+v", a, b)
	}
	_, _, relsA := p.AnnotateInstruction("Bring the water to a boil in a large pot.")
	_, _, relsB := loaded.AnnotateInstruction("Bring the water to a boil in a large pot.")
	if len(relsA) != len(relsB) {
		t.Fatal("round trip changed relations")
	}
	if _, err := LoadPipeline(strings.NewReader("garbage")); err == nil {
		t.Fatal("expected error on garbage")
	}
}
