// Package perceptron implements a sparse multiclass averaged
// perceptron. It is the learning core of the POS tagger and a second
// training backend for the NER layer: simple, fast, deterministic, and
// strong on the handcrafted feature templates the paper's pipeline
// uses.
package perceptron

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// Model is a multiclass averaged perceptron over string features.
// The zero value is not usable; call New.
type Model struct {
	Classes []string
	classID map[string]int

	// weights[feature][class]
	weights map[string][]float64
	// averaging bookkeeping (Daumé's trick): totals accumulate
	// weight × survival time; stamps record the last update tick.
	totals map[string][]float64
	stamps map[string][]int
	ticks  int
	frozen bool
}

// New creates a model for the given class inventory.
func New(classes []string) *Model {
	m := &Model{
		Classes: append([]string(nil), classes...),
		classID: make(map[string]int, len(classes)),
		weights: make(map[string][]float64),
		totals:  make(map[string][]float64),
		stamps:  make(map[string][]int),
	}
	for i, c := range classes {
		m.classID[c] = i
	}
	return m
}

// ClassID returns the index for a class name, or -1.
func (m *Model) ClassID(c string) int {
	if id, ok := m.classID[c]; ok {
		return id
	}
	return -1
}

// Scores returns the per-class activation for a feature set.
func (m *Model) Scores(features []string) []float64 {
	s := make([]float64, len(m.Classes))
	for _, f := range features {
		w, ok := m.weights[f]
		if !ok {
			continue
		}
		for c, v := range w {
			s[c] += v
		}
	}
	return s
}

// Predict returns the best class index for the features; ties break
// toward the lower class index for determinism.
func (m *Model) Predict(features []string) int {
	s := m.Scores(features)
	best := 0
	for c := 1; c < len(s); c++ {
		if s[c] > s[best] {
			best = c
		}
	}
	return best
}

// PredictLabel returns the best class name.
func (m *Model) PredictLabel(features []string) string {
	return m.Classes[m.Predict(features)]
}

// Update performs one perceptron update: promote gold, demote the
// prediction, when they differ. Returns whether the prediction was
// correct. Must not be called after Average.
func (m *Model) Update(features []string, gold int) bool {
	if m.frozen {
		panic("perceptron: Update after Average")
	}
	m.ticks++
	pred := m.Predict(features)
	if pred == gold {
		return true
	}
	for _, f := range features {
		m.bump(f, gold, 1)
		m.bump(f, pred, -1)
	}
	return false
}

func (m *Model) bump(f string, class int, delta float64) {
	w, ok := m.weights[f]
	if !ok {
		n := len(m.Classes)
		w = make([]float64, n)
		m.weights[f] = w
		m.totals[f] = make([]float64, n)
		m.stamps[f] = make([]int, n)
	}
	t := m.totals[f]
	st := m.stamps[f]
	t[class] += float64(m.ticks-st[class]) * w[class]
	st[class] = m.ticks
	w[class] += delta
}

// Average replaces the working weights with their running average,
// which is what should be used at inference time. After averaging the
// model is frozen.
func (m *Model) Average() {
	if m.frozen {
		return
	}
	for f, w := range m.weights {
		t := m.totals[f]
		st := m.stamps[f]
		for c := range w {
			t[c] += float64(m.ticks-st[c]) * w[c]
			if m.ticks > 0 {
				w[c] = t[c] / float64(m.ticks)
			}
		}
	}
	m.totals = nil
	m.stamps = nil
	m.frozen = true
}

// Example is one training instance.
type Example struct {
	Features []string
	Class    int
}

// TrainConfig controls Train.
type TrainConfig struct {
	Epochs int // default 5
	Seed   int64
}

// Train runs epochs of shuffled perceptron training and averages the
// weights. It returns the per-epoch training accuracy trace.
func (m *Model) Train(examples []Example, cfg TrainConfig) []float64 {
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = 5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, len(examples))
	for i := range idx {
		idx[i] = i
	}
	trace := make([]float64, 0, epochs)
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		correct := 0
		for _, i := range idx {
			if m.Update(examples[i].Features, examples[i].Class) {
				correct++
			}
		}
		if len(examples) > 0 {
			trace = append(trace, float64(correct)/float64(len(examples)))
		}
	}
	m.Average()
	return trace
}

// FeatureCount returns the number of distinct features seen.
func (m *Model) FeatureCount() int { return len(m.weights) }

// Features returns every feature the model holds weights for, sorted.
func (m *Model) Features() []string {
	fs := make([]string, 0, len(m.weights))
	for f := range m.weights {
		fs = append(fs, f)
	}
	sort.Strings(fs)
	return fs
}

// Weights returns a feature's weight row, one weight per class, or nil
// for an unseen feature. The row is the model's own; do not modify it.
func (m *Model) Weights(feature string) []float64 { return m.weights[feature] }

// wireModel is the gob wire form of an averaged model. Weights[i] is
// the row of Features[i]; sorting the features is what makes the same
// weights encode to the same bytes, where a gob-encoded map would
// follow Go's randomized map order.
type wireModel struct {
	Classes  []string
	Features []string
	Weights  [][]float64
}

// MarshalBinary encodes an averaged model with encoding/gob. Only the
// averaged weights are meaningful at inference time, so a model that
// has not been averaged is an error. Encoding the same weights twice
// gives the same bytes; gob numbers types in the order a process first
// encodes them, so a process that gob-encoded other types first may
// write different, equally decodable bytes.
func (m *Model) MarshalBinary() ([]byte, error) {
	if !m.frozen {
		return nil, errors.New("perceptron: MarshalBinary before Average")
	}
	w := wireModel{Classes: m.Classes, Features: m.Features()}
	w.Weights = make([][]float64, len(w.Features))
	for i, f := range w.Features {
		w.Weights[i] = m.weights[f]
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("perceptron: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary replaces m with the averaged model MarshalBinary
// encoded in data, frozen. It rejects trailing bytes, features that
// are not strictly sorted, and weight rows that do not hold one weight
// per class: gob accepts any shapes, and a long row would otherwise
// panic with an index out of range in Scores while a short one would
// silently score the missing classes zero.
func (m *Model) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	var w wireModel
	if err := gob.NewDecoder(r).Decode(&w); err != nil {
		return fmt.Errorf("perceptron: decode: %w", err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("perceptron: %d trailing bytes after the model", r.Len())
	}
	n := len(w.Classes)
	if n == 0 {
		return errors.New("perceptron: model has no classes")
	}
	if len(w.Weights) != len(w.Features) {
		return fmt.Errorf("perceptron: %d weight rows for %d features", len(w.Weights), len(w.Features))
	}
	weights := make(map[string][]float64, len(w.Features))
	for i, f := range w.Features {
		if i > 0 && f <= w.Features[i-1] {
			return fmt.Errorf("perceptron: feature %q out of order after %q", f, w.Features[i-1])
		}
		if len(w.Weights[i]) != n {
			return fmt.Errorf("perceptron: feature %q has %d weights, want %d", f, len(w.Weights[i]), n)
		}
		weights[f] = w.Weights[i]
	}
	*m = *New(w.Classes)
	m.weights, m.totals, m.stamps, m.frozen = weights, nil, nil, true
	return nil
}

// TopFeatures returns up to n (feature, weight) pairs with the largest
// absolute weight for a class — useful for model inspection.
func (m *Model) TopFeatures(class string, n int) []WeightedFeature {
	id := m.ClassID(class)
	if id < 0 {
		return nil
	}
	out := make([]WeightedFeature, 0, len(m.weights))
	for f, w := range m.weights {
		if w[id] != 0 {
			out = append(out, WeightedFeature{Feature: f, Weight: w[id]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := out[i].Weight, out[j].Weight
		if ai < 0 {
			ai = -ai
		}
		if aj < 0 {
			aj = -aj
		}
		if ai != aj {
			return ai > aj
		}
		return out[i].Feature < out[j].Feature
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// WeightedFeature pairs a feature name with its learned weight.
type WeightedFeature struct {
	Feature string
	Weight  float64
}
