package corpus

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"recipemodel/internal/ner"
	"recipemodel/internal/recipedb"
)

func sents(n int) []ner.Sentence {
	g := recipedb.NewGenerator(recipedb.SourceAllRecipes, 1)
	return IngredientSentences(g.IngredientPhrases(n))
}

func TestIngredientSentences(t *testing.T) {
	ss := sents(20)
	if len(ss) != 20 {
		t.Fatalf("got %d", len(ss))
	}
	for _, s := range ss {
		if len(s.Tokens) == 0 || len(s.Spans) == 0 {
			t.Fatal("empty sentence")
		}
	}
}

func TestInstructionSentences(t *testing.T) {
	g := recipedb.NewGenerator(recipedb.SourceFoodCom, 2)
	ss := InstructionSentences(g.Instructions(15))
	if len(ss) != 15 {
		t.Fatalf("got %d", len(ss))
	}
	for _, s := range ss {
		if len(s.Tokens) == 0 {
			t.Fatal("empty instruction sentence")
		}
	}
}

func TestSplit(t *testing.T) {
	ss := sents(100)
	train, test := Split(ss, 0.25, rand.New(rand.NewSource(3)))
	if len(test) != 25 || len(train) != 75 {
		t.Fatalf("split %d/%d", len(train), len(test))
	}
}

func TestSplitDeterministic(t *testing.T) {
	ss := sents(50)
	tr1, te1 := Split(ss, 0.2, rand.New(rand.NewSource(4)))
	tr2, te2 := Split(ss, 0.2, rand.New(rand.NewSource(4)))
	if len(tr1) != len(tr2) || len(te1) != len(te2) {
		t.Fatal("nondeterministic split sizes")
	}
	for i := range te1 {
		if te1[i].Tokens[0] != te2[i].Tokens[0] {
			t.Fatal("nondeterministic split content")
		}
	}
}

func TestKFold(t *testing.T) {
	ss := sents(53)
	folds := KFold(ss, 5, rand.New(rand.NewSource(5)))
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	totalTest := 0
	for _, f := range folds {
		totalTest += len(f.Test)
		if len(f.Train)+len(f.Test) != 53 {
			t.Fatalf("fold sizes %d + %d", len(f.Train), len(f.Test))
		}
	}
	if totalTest != 53 {
		t.Fatalf("test shards cover %d of 53", totalTest)
	}
}

func TestKFoldDegenerate(t *testing.T) {
	if KFold(sents(3), 5, rand.New(rand.NewSource(6))) != nil {
		t.Fatal("too few sentences should return nil")
	}
	if KFold(sents(5), 1, rand.New(rand.NewSource(6))) != nil {
		t.Fatal("k<2 should return nil")
	}
}

func TestGoldAndPredict(t *testing.T) {
	ss := sents(30)
	gold := Gold(ss)
	if len(gold) != 30 {
		t.Fatal("gold length")
	}
	tg := ner.Train(ss, ner.IngredientTypes,
		ner.NewIngredientExtractor(ner.DefaultFeatureOptions),
		ner.TrainConfig{Epochs: 3, Seed: 7})
	pred := Predict(tg, ss)
	if len(pred) != 30 {
		t.Fatal("pred length")
	}
}

// TestIOLosslessOnGold pins the premise of training on IO labels: IO
// cannot separate two touching spans of one type, and no gold
// ingredient phrase or instruction step of either source holds such a
// pair, so IO decodes every gold sentence to the spans BIO does. A
// generator change that breaks the premise fails here rather than
// quietly lowering F1.
func TestIOLosslessOnGold(t *testing.T) {
	phrases, steps := 0, 0
	for _, src := range []recipedb.Source{recipedb.SourceAllRecipes, recipedb.SourceFoodCom} {
		var ss []ner.Sentence
		for _, r := range recipedb.NewGenerator(src, 9001).Recipes(3000) {
			ss = append(ss, IngredientSentences(r.Ingredients)...)
			ss = append(ss, InstructionSentences(r.Instructions)...)
			phrases += len(r.Ingredients)
			steps += len(r.Instructions)
		}
		for _, s := range ss {
			n := len(s.Tokens)
			want := ner.BIOToSpans(ner.SpansToBIO(n, s.Spans))
			if got := ner.BIOToSpans(ner.SpansToIO(n, s.Spans)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s gold %q: IO decodes to %v, BIO to %v", src, strings.Join(s.Tokens, " "), got, want)
			}
		}
	}
	if phrases < 40000 || steps < 30000 {
		t.Fatalf("checked %d phrases and %d steps, want at least 40,000 and 30,000", phrases, steps)
	}
}
