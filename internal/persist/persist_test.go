package persist

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"recipemodel/internal/corpus"
	"recipemodel/internal/ner"
	"recipemodel/internal/recipedb"
)

func trainSmall(t *testing.T) (*ner.Tagger, *ner.Tagger) {
	t.Helper()
	g := recipedb.NewGenerator(recipedb.SourceAllRecipes, 1)
	ing := ner.Train(corpus.IngredientSentences(g.UniquePhrases(400)),
		ner.IngredientTypes, ner.NewIngredientExtractor(ner.DefaultFeatureOptions),
		ner.TrainConfig{Epochs: 4, Seed: 2})
	ins := ner.Train(corpus.InstructionSentences(g.Instructions(300)),
		ner.InstructionTypes, ner.NewInstructionExtractor(ner.DefaultFeatureOptions),
		ner.TrainConfig{Epochs: 4, Seed: 3})
	return ing, ins
}

func TestBundleRoundTrip(t *testing.T) {
	ing, ins := trainSmall(t)
	var buf bytes.Buffer
	if err := SaveBundle(&buf, ing, ins, ner.DefaultFeatureOptions); err != nil {
		t.Fatal(err)
	}
	li, ls, err := LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tokens := strings.Fields("bring the water to a boil in a large pot")
	if !reflect.DeepEqual(ins.Predict(tokens), ls.Predict(tokens)) {
		t.Fatal("instruction predictions differ after round trip")
	}
	tokens = strings.Fields("1 cup sugar")
	if !reflect.DeepEqual(ing.Predict(tokens), li.Predict(tokens)) {
		t.Fatal("ingredient predictions differ after round trip")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, _, err := LoadBundle(strings.NewReader("junk")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestUnknownTask(t *testing.T) {
	if _, err := extractorFor(Task("weird"), ner.DefaultFeatureOptions); err == nil {
		t.Fatal("expected unknown-task error")
	}
}
