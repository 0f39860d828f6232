package postag

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"recipemodel/internal/perceptron"
)

// regenerate is the fix every failure of the embedded-model check
// names.
const regenerate = "the embedded default_tagger.gob no longer matches TrainDefault; run `go generate ./internal/postag`"

// TestDefaultTaggerMatchesTraining pins the embedded model to the code
// that trains it: the same bytes, the same features and weights to the
// last bit, and the same tags on every corpus sentence.
func TestDefaultTaggerMatchesTraining(t *testing.T) {
	fresh := TrainDefault()
	data, err := fresh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(defaultModel, data) {
		t.Errorf("%s: the embedded %d bytes differ from training's %d", regenerate, len(defaultModel), len(data))
	}
	decoded, err := decodeTagger(defaultModel)
	if err != nil {
		t.Fatalf("%s: %v", regenerate, err)
	}
	want, got := fresh.model.Features(), decoded.model.Features()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: embedded model has %d features, training gives %d", regenerate, len(got), len(want))
	}
	for _, f := range want {
		w, g := fresh.model.Weights(f), decoded.model.Weights(f)
		for c := range w {
			if math.Float64bits(g[c]) != math.Float64bits(w[c]) {
				t.Fatalf("%s: feature %q tag %s weighs %v, training gives %v", regenerate, f, PTBTags[c], g[c], w[c])
			}
		}
	}
	def := Default()
	for i, s := range Corpus() {
		if got, want := def.Tag(s.Words), fresh.Tag(s.Words); !slices.Equal(got, want) {
			t.Fatalf("%s: sentence %d %v tagged %v, training gives %v", regenerate, i, s.Words, got, want)
		}
	}
}

func TestDecodeTaggerRejectsOtherClasses(t *testing.T) {
	m := perceptron.New([]string{"NN", "VB"})
	m.Average()
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeTagger(data); err == nil {
		t.Fatal("decodeTagger accepted a model whose classes are not the PTB tags")
	}
}

// BenchmarkTrainDefault is the cost every process paid in Default
// before the model was embedded.
func BenchmarkTrainDefault(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TrainDefault()
	}
}

// BenchmarkDefaultDecode is what Default pays instead: decoding the
// embedded model.
func BenchmarkDefaultDecode(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeTagger(defaultModel); err != nil {
			b.Fatal(err)
		}
	}
}
