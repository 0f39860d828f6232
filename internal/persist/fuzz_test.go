package persist

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"recipemodel/internal/ner"
)

// tinyCRF builds the smallest savedCRF whose dimensions are
// consistent, without training anything.
func tinyCRF() savedCRF {
	return savedCRF{
		Labels:   []string{"I-NAME", "O"},
		Features: []string{"w=onion", "w=salt"},
		Weights:  [][]float64{{1.5, -0.5}, {0.9, -0.1}},
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
		"short emit row":   func(b *savedBundle) { b.Ingredient.CRF.Weights[0] = []float64{1} },
		"long emit row":    func(b *savedBundle) { b.Instruction.CRF.Weights[1] = []float64{1, 2, 3} },
		"missing emit row": func(b *savedBundle) { b.Ingredient.CRF.Weights = b.Ingredient.CRF.Weights[:1] },
		"unsorted features": func(b *savedBundle) {
			b.Ingredient.CRF.Features = []string{"w=salt", "w=onion"}
		},
		"duplicate feature": func(b *savedBundle) {
			b.Instruction.CRF.Features = []string{"w=onion", "w=onion"}
		},
		"B- label at the current version": func(b *savedBundle) { b.Ingredient.CRF.Labels[0] = "B-NAME" },
		"empty I- type":                   func(b *savedBundle) { b.Instruction.CRF.Labels[0] = "I-" },
		"bad version":                     func(b *savedBundle) { b.Version = 99 },
		"bad task":                        func(b *savedBundle) { b.Ingredient.Task = "weird" },
	}
	for name, fn := range cases {
		if _, _, err := LoadBundle(bytes.NewReader(mutateBundle(t, fn))); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// republishText is the command every refused pre-IO bundle names.
const republishText = "recipemine train -store DIR (or recipemine train -o FILE for a bundle file)"

// TestLoadBundleRefusesV1 pins the wire-version bump: a version-1
// bundle, whose taggers carry BIO labels and an emission map (the
// committed testdata/bundle-v1-bio.gob), is refused with the command
// that republishes it, and so is a B- label at the current version.
func TestLoadBundleRefusesV1(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "bundle-v1-bio.gob"))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = LoadBundle(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "bundle wire version 1") || !strings.Contains(err.Error(), republishText) {
		t.Fatalf("version-1 bundle: err = %v, want the version and %q", err, republishText)
	}
	bio := mutateBundle(t, func(b *savedBundle) { b.Instruction.CRF.Labels[0] = "B-NAME" })
	_, _, err = LoadBundle(bytes.NewReader(bio))
	if err == nil || !strings.Contains(err.Error(), `"B-NAME"`) || !strings.Contains(err.Error(), republishText) {
		t.Fatalf("B- label: err = %v, want the label and %q", err, republishText)
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
