package postag

import (
	_ "embed"
	"fmt"
	"slices"
	"strings"
	"sync"

	"recipemodel/internal/perceptron"
)

// Tagger is a greedy left-to-right averaged-perceptron POS tagger.
// Its classes are the 36 PTB tags in PTBTags order; punctuation is
// tagged deterministically before the model runs.
type Tagger struct {
	model *perceptron.Model
}

// TrainConfig controls tagger training.
type TrainConfig struct {
	Epochs int // default 5
	Seed   int64
}

// Train fits a tagger on the given gold-tagged corpus.
func Train(corpus []TaggedSentence, cfg TrainConfig) *Tagger {
	t := &Tagger{model: perceptron.New(PTBTags)}

	var examples []perceptron.Example
	for _, sent := range corpus {
		prev, prev2 := "-START-", "-START2-"
		for i, w := range sent.Words {
			gold := sent.Tags[i]
			if _, ok := punctTagFor(w); ok {
				prev2, prev = prev, gold
				continue
			}
			id := t.model.ClassID(gold)
			if id < 0 {
				// tag outside the 36 (stray punctuation gold): skip.
				prev2, prev = prev, gold
				continue
			}
			examples = append(examples, perceptron.Example{
				Features: features(sent.Words, i, prev, prev2),
				Class:    id,
			})
			prev2, prev = prev, gold
		}
	}
	t.model.Train(examples, perceptron.TrainConfig{Epochs: cfg.Epochs, Seed: cfg.Seed})
	return t
}

// Tag assigns a PTB tag to every token.
func (t *Tagger) Tag(words []string) []string {
	tags := make([]string, len(words))
	prev, prev2 := "-START-", "-START2-"
	for i, w := range words {
		if pt, ok := punctTagFor(w); ok {
			tags[i] = pt
		} else {
			tags[i] = t.model.PredictLabel(features(words, i, prev, prev2))
		}
		prev2, prev = prev, tags[i]
	}
	return tags
}

// features extracts the perceptron feature set for position i. The
// templates follow the classic perceptron-tagger recipe: word
// identity, affixes, shape, and the two previous predicted tags.
func features(words []string, i int, prev, prev2 string) []string {
	w := words[i]
	lw := strings.ToLower(w)
	fs := make([]string, 0, 20)
	fs = append(fs,
		"bias",
		"w="+normWord(lw),
		"suf3="+suffix(lw, 3),
		"suf2="+suffix(lw, 2),
		"suf1="+suffix(lw, 1),
		"pre1="+prefix(lw, 1),
		"shape="+shape(w),
		"t-1="+prev,
		"t-2t-1="+prev2+"|"+prev,
	)
	if i > 0 {
		pw := strings.ToLower(words[i-1])
		fs = append(fs, "w-1="+normWord(pw), "w-1suf3="+suffix(pw, 3))
	} else {
		fs = append(fs, "w-1=-START-")
	}
	if i+1 < len(words) {
		nw := strings.ToLower(words[i+1])
		fs = append(fs, "w+1="+normWord(nw), "w+1suf3="+suffix(nw, 3))
	} else {
		fs = append(fs, "w+1=-END-")
	}
	return fs
}

// normWord collapses numeric tokens onto a single marker so every
// cardinal shares statistics.
func normWord(lw string) string {
	if looksNumeric(lw) {
		return "!num"
	}
	return lw
}

func looksNumeric(w string) bool {
	if w == "" {
		return false
	}
	digits := 0
	for i := 0; i < len(w); i++ {
		c := w[i]
		switch {
		case c >= '0' && c <= '9':
			digits++
		case c == '/' || c == '.' || c == '-' || c == ' ' || c == ',':
		default:
			return false
		}
	}
	return digits > 0
}

func suffix(w string, n int) string {
	if len(w) <= n {
		return w
	}
	return w[len(w)-n:]
}

func prefix(w string, n int) string {
	if len(w) <= n {
		return w
	}
	return w[:n]
}

// shape produces a coarse orthographic signature: X for uppercase, x
// for lowercase, d for digit, runs collapsed.
func shape(w string) string {
	var b strings.Builder
	var last rune
	for _, r := range w {
		var c rune
		switch {
		case r >= 'A' && r <= 'Z':
			c = 'X'
		case r >= 'a' && r <= 'z':
			c = 'x'
		case r >= '0' && r <= '9':
			c = 'd'
		default:
			c = r
		}
		if c != last {
			b.WriteRune(c)
			last = c
		}
	}
	return b.String()
}

// MarshalBinary encodes the tagger's averaged perceptron
// (perceptron.Model.MarshalBinary).
func (t *Tagger) MarshalBinary() ([]byte, error) { return t.model.MarshalBinary() }

// decodeTagger decodes a tagger MarshalBinary encoded and checks that
// its classes are PTBTags, the order Tag and Vectorize assume.
func decodeTagger(data []byte) (*Tagger, error) {
	m := new(perceptron.Model)
	if err := m.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	if !slices.Equal(m.Classes, PTBTags) {
		return nil, fmt.Errorf("postag: model classes %v are not the PTB tags", m.Classes)
	}
	return &Tagger{model: m}, nil
}

// TrainDefault trains the default tagger: the embedded corpus, five
// epochs, seed 1. It is the one place that configuration lives;
// Default serves the same weights without training.
func TrainDefault() *Tagger {
	return Train(Corpus(), TrainConfig{Epochs: 5, Seed: 1})
}

// defaultModel holds TrainDefault's weights as MarshalBinary encodes
// them. After changing the corpus, the feature templates or
// internal/perceptron, regenerate it with `go generate
// ./internal/postag`; TestDefaultTaggerMatchesTraining fails until
// then.
//
//go:generate go run gen_default.go
//go:embed default_tagger.gob
var defaultModel []byte

var (
	defaultOnce   sync.Once
	defaultTagger *Tagger
)

// Default returns the package-level tagger, decoded once from the
// embedded default_tagger.gob: TrainDefault's tagger, weight for
// weight, without the training. It is safe for concurrent use.
func Default() *Tagger {
	defaultOnce.Do(func() {
		t, err := decodeTagger(defaultModel)
		if err != nil {
			panic(fmt.Sprintf("postag: embedded default tagger: %v (regenerate it with `go generate ./internal/postag`)", err))
		}
		defaultTagger = t
	})
	return defaultTagger
}
