package crf

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomModel builds a CRF with random weights over nLabels labels and
// a feature vocabulary feat0..feat{nFeats-1}.
func packedRandModel(rng *rand.Rand, nLabels, nFeats int) *Model {
	labels := make([]string, nLabels)
	for i := range labels {
		labels[i] = fmt.Sprintf("L%d", i)
	}
	m := New(labels)
	for f := 0; f < nFeats; f++ {
		w := make([]float64, nLabels)
		for y := range w {
			w[y] = rng.NormFloat64()
		}
		m.Emit[fmt.Sprintf("feat%d", f)] = w
	}
	for r := range m.Trans {
		for y := range m.Trans[r] {
			m.Trans[r][y] = rng.NormFloat64()
		}
	}
	for y := range m.TransEnd {
		m.TransEnd[y] = rng.NormFloat64()
	}
	return m
}

// randomFeatures draws a feature sequence, mixing known features with
// ones the model has never seen (which both decoders must skip).
func packedRandFeatures(rng *rand.Rand, n, nFeats int) [][]string {
	out := make([][]string, n)
	for t := range out {
		k := 1 + rng.Intn(6)
		fs := make([]string, 0, k)
		for j := 0; j < k; j++ {
			if rng.Intn(4) == 0 {
				fs = append(fs, fmt.Sprintf("unseen%d", rng.Intn(50)))
			} else {
				fs = append(fs, fmt.Sprintf("feat%d", rng.Intn(nFeats)))
			}
		}
		out[t] = fs
	}
	return out
}

// TestCompiledDecodeProperty is the randomized old-vs-compiled
// property: for arbitrary models and inputs, Compile(m).Decode must
// reproduce m.Decode exactly — same path, bit-identical score.
func TestCompiledDecodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nLabels := 1 + rng.Intn(9)
		nFeats := 1 + rng.Intn(40)
		m := packedRandModel(rng, nLabels, nFeats)
		c := m.Compile()
		for seq := 0; seq < 5; seq++ {
			feats := packedRandFeatures(rng, 1+rng.Intn(12), nFeats)
			wantPath, wantScore := m.Decode(feats)
			gotPath, gotScore := c.Decode(feats)
			if len(gotPath) != len(wantPath) {
				t.Fatalf("trial %d: path length %d vs %d", trial, len(gotPath), len(wantPath))
			}
			for i := range wantPath {
				if gotPath[i] != wantPath[i] {
					t.Fatalf("trial %d: path[%d] = %d, want %d", trial, i, gotPath[i], wantPath[i])
				}
			}
			if gotScore != wantScore {
				t.Fatalf("trial %d: score %v, want %v (must be bit-identical)", trial, gotScore, wantScore)
			}
		}
	}
}

func TestCompiledDecodeEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := packedRandModel(rng, 3, 5)
	c := m.Compile()
	if path, score := c.Decode(nil); path != nil || score != 0 {
		t.Errorf("empty input: got (%v, %v), want (nil, 0)", path, score)
	}
	// all-unknown features still decode (transition-only path).
	feats := [][]string{{"nope"}, {"also-nope"}}
	wantPath, wantScore := m.Decode(feats)
	gotPath, gotScore := c.Decode(feats)
	if gotScore != wantScore || len(gotPath) != len(wantPath) {
		t.Fatalf("unknown-only features diverge: (%v,%v) vs (%v,%v)", gotPath, gotScore, wantPath, wantScore)
	}
}

func BenchmarkCompiledDecodeIDs(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := packedRandModel(rng, 15, 5000)
	c := m.Compile()
	// a 10-token sequence with ~25 features per token, the ingredient
	// tagger's shape.
	var ids []int32
	offs := []int32{0}
	for t := 0; t < 10; t++ {
		for j := 0; j < 25; j++ {
			ids = append(ids, int32(rng.Intn(5000)))
		}
		offs = append(offs, int32(len(ids)))
	}
	path := make([]int32, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path, _ = c.AppendDecodeIDs(path[:0], ids, offs)
	}
}

func BenchmarkMapDecode(b *testing.B) {
	// the pre-compile baseline decoder on the same shape, for the
	// compiled decoder's speedup ratio recorded in CHANGES.md.
	rng := rand.New(rand.NewSource(3))
	m := packedRandModel(rng, 15, 5000)
	feats := make([][]string, 10)
	for t := range feats {
		for j := 0; j < 25; j++ {
			feats[t] = append(feats[t], fmt.Sprintf("feat%d", rng.Intn(5000)))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Decode(feats)
	}
}
