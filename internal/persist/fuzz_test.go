package persist

import (
	"bytes"
	"encoding/gob"
	"testing"

	"recipemodel/internal/ner"
)

// tinyCRF builds the smallest savedCRF whose dimensions are
// consistent, without training anything.
func tinyCRF() savedCRF {
	return savedCRF{
		Labels:   []string{"B-NAME", "O"},
		Emit:     map[string][]float64{"w=onion": {1.5, -0.5}},
		Trans:    [][]float64{{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}},
		TransEnd: []float64{0.7, 0.8},
	}
}

func tinyBundleBytes(tb testing.TB) []byte {
	tb.Helper()
	b := savedBundle{
		Version:     wireVersion,
		Ingredient:  savedTagger{Task: TaskIngredient, Options: ner.DefaultFeatureOptions, CRF: tinyCRF()},
		Instruction: savedTagger{Task: TaskInstruction, Options: ner.DefaultFeatureOptions, CRF: tinyCRF()},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(b); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// mutateBundle encodes a bundle after fn has corrupted it.
func mutateBundle(tb testing.TB, fn func(*savedBundle)) []byte {
	tb.Helper()
	b := savedBundle{
		Version:     wireVersion,
		Ingredient:  savedTagger{Task: TaskIngredient, Options: ner.DefaultFeatureOptions, CRF: tinyCRF()},
		Instruction: savedTagger{Task: TaskInstruction, Options: ner.DefaultFeatureOptions, CRF: tinyCRF()},
	}
	fn(&b)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(b); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadBundle asserts the core decode contract: arbitrary bytes
// must produce either a usable tagger pair or an error — never a
// panic, neither during decode nor on the first prediction.
func FuzzLoadBundle(f *testing.F) {
	valid := tinyBundleBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-stream
	f.Add(valid[:1])
	f.Add([]byte("not a gob stream"))
	f.Add([]byte{})
	// A structurally valid gob whose weight tables are inconsistent.
	f.Add(mutateBundle(f, func(b *savedBundle) { b.Ingredient.CRF.TransEnd = nil }))
	f.Fuzz(func(t *testing.T, data []byte) {
		ing, ins, err := LoadBundle(bytes.NewReader(data))
		if err != nil {
			return
		}
		tokens := []string{"2", "cups", "chopped", "onion"}
		if got := ing.PredictTags(tokens); len(got) != len(tokens) {
			t.Fatalf("ingredient tagger predicted %d labels for %d tokens", len(got), len(tokens))
		}
		if got := ins.PredictTags(tokens); len(got) != len(tokens) {
			t.Fatalf("instruction tagger predicted %d labels for %d tokens", len(got), len(tokens))
		}
	})
}

// The regression cases below pin the corruption classes the fuzz
// targets cover, so plain `go test` exercises them without -fuzz.

func TestLoadBundleTruncated(t *testing.T) {
	valid := tinyBundleBytes(t)
	for cut := 0; cut < len(valid); cut += 7 {
		if _, _, err := LoadBundle(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", cut, len(valid))
		}
	}
}

func TestLoadBundleBadDimensions(t *testing.T) {
	cases := map[string]func(*savedBundle){
		"no labels":        func(b *savedBundle) { b.Ingredient.CRF.Labels = nil },
		"missing bos row":  func(b *savedBundle) { b.Ingredient.CRF.Trans = b.Ingredient.CRF.Trans[:2] },
		"ragged trans row": func(b *savedBundle) { b.Instruction.CRF.Trans[1] = []float64{1} },
		"short trans-end":  func(b *savedBundle) { b.Instruction.CRF.TransEnd = []float64{1} },
		"short emit vec":   func(b *savedBundle) { b.Ingredient.CRF.Emit["w=onion"] = []float64{1} },
		"bad version":      func(b *savedBundle) { b.Version = 99 },
		"bad task":         func(b *savedBundle) { b.Ingredient.Task = "weird" },
	}
	for name, fn := range cases {
		if _, _, err := LoadBundle(bytes.NewReader(mutateBundle(t, fn))); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestLoadBundleTinyValid(t *testing.T) {
	ing, ins, err := LoadBundle(bytes.NewReader(tinyBundleBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	if got := ing.PredictTags([]string{"onion"}); len(got) != 1 {
		t.Fatalf("ingredient predict: %v", got)
	}
	if got := ins.PredictTags([]string{"boil"}); len(got) != 1 {
		t.Fatalf("instruction predict: %v", got)
	}
}
