package perceptron

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// codecModel trains a small averaged model on noisy three-class data,
// so its weights are fractional averages rather than small integers.
func codecModel() (*Model, []Example) {
	rng := rand.New(rand.NewSource(3))
	var examples []Example
	for i := 0; i < 300; i++ {
		c := rng.Intn(3)
		feats := []string{"bias", fmt.Sprintf("w=%d", rng.Intn(40)), fmt.Sprintf("sig%d", c)}
		if rng.Float64() < 0.15 {
			c = rng.Intn(3)
		}
		examples = append(examples, Example{Features: feats, Class: c})
	}
	m := New([]string{"a", "b", "c"})
	m.Train(examples, TrainConfig{Epochs: 4, Seed: 5})
	return m, examples
}

func mustMarshal(t *testing.T, m *Model) []byte {
	t.Helper()
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestBinaryRoundTrip(t *testing.T) {
	m, examples := codecModel()
	data := mustMarshal(t, m)
	var got Model
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Classes, m.Classes) || !slices.Equal(got.Features(), m.Features()) {
		t.Fatalf("decoded classes %v / %d features, want %v / %d",
			got.Classes, got.FeatureCount(), m.Classes, m.FeatureCount())
	}
	for i, ex := range examples {
		want, have := m.Scores(ex.Features), got.Scores(ex.Features)
		for c := range want {
			if math.Float64bits(want[c]) != math.Float64bits(have[c]) {
				t.Fatalf("example %d class %d: score %v, want %v", i, c, have[c], want[c])
			}
		}
	}
	if got.ClassID("b") != 1 {
		t.Fatal("decoded model lost its class index")
	}
	// The decoded model is frozen and re-encodes to the same bytes.
	if again := mustMarshal(t, &got); !bytes.Equal(again, data) {
		t.Fatal("decode then encode changed the bytes")
	}
}

func TestMarshalBinaryDeterministic(t *testing.T) {
	a, _ := codecModel()
	b, _ := codecModel()
	first := mustMarshal(t, a)
	if !bytes.Equal(mustMarshal(t, a), first) {
		t.Fatal("two encodes of one model differ")
	}
	if !bytes.Equal(mustMarshal(t, b), first) {
		t.Fatal("two models trained alike encode differently")
	}
}

func TestMarshalBinaryBeforeAverage(t *testing.T) {
	m := New([]string{"a", "b"})
	m.Update([]string{"x"}, 1)
	if _, err := m.MarshalBinary(); err == nil {
		t.Fatal("MarshalBinary of a model that was not averaged succeeded")
	}
}

func TestUnmarshalBinaryRejects(t *testing.T) {
	m, _ := codecModel()
	data := mustMarshal(t, m)
	encode := func(w wireModel) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := map[string][]byte{
		"short row": encode(wireModel{
			Classes: []string{"a", "b", "c"}, Features: []string{"f", "g"},
			Weights: [][]float64{{1, 2, 3}, {1, 2}},
		}),
		"long row": encode(wireModel{
			Classes: []string{"a", "b"}, Features: []string{"f"}, Weights: [][]float64{{1, 2, 3}},
		}),
		"truncated":        data[:len(data)/2],
		"trailing garbage": append(slices.Clip(data), 0x03, 0xff, 0x00),
		"empty":            nil,
		"no classes":       encode(wireModel{Features: []string{"f"}, Weights: [][]float64{{}}}),
		"rows != features": encode(wireModel{
			Classes: []string{"a"}, Features: []string{"f", "g"}, Weights: [][]float64{{1}},
		}),
		"unsorted features": encode(wireModel{
			Classes: []string{"a"}, Features: []string{"g", "f"}, Weights: [][]float64{{1}, {2}},
		}),
		"duplicate feature": encode(wireModel{
			Classes: []string{"a"}, Features: []string{"f", "f"}, Weights: [][]float64{{1}, {2}},
		}),
	}
	for name, in := range cases {
		var got Model
		if err := got.UnmarshalBinary(in); err == nil {
			t.Errorf("%s: UnmarshalBinary accepted it", name)
		}
	}
}
