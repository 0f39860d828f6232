package postag

import (
	"math"
	"strings"
)

// HMM is a bigram hidden-Markov-model POS tagger: multinomial
// emissions with add-one smoothing, a suffix back-off model for
// unknown words, and Viterbi decoding. It is the second tagging
// backend (the classical alternative to the discriminative perceptron
// tagger), used to show the pipeline's POS-vector clustering is robust
// to the choice of tagger.
type HMM struct {
	tags []string
	// logInit[t], logTrans[t1][t2], logEmit[t]["word"].
	logInit  []float64
	logTrans [][]float64
	logEmit  []map[string]float64
	// unknown-word back-off: logSuffix[t][suffix] over 1–3 char
	// suffixes, and logFloor as the final fallback. The floor is shared
	// across tags: a per-tag floor of 1/(total_t+V) would
	// systematically favour rare tags on unknown words.
	logSuffix []map[string]float64
	logFloor  float64
	vocab     map[string]bool
}

// TrainHMM estimates the model from a gold-tagged corpus.
func TrainHMM(corpus []TaggedSentence) *HMM {
	tagID := map[string]int{}
	var tags []string
	intern := func(t string) int {
		if id, ok := tagID[t]; ok {
			return id
		}
		tagID[t] = len(tags)
		tags = append(tags, t)
		return len(tags) - 1
	}
	// count
	type counts struct {
		init   map[int]float64
		trans  map[[2]int]float64
		emit   map[int]map[string]float64
		suffix map[int]map[string]float64
		total  map[int]float64
	}
	c := counts{
		init:   map[int]float64{},
		trans:  map[[2]int]float64{},
		emit:   map[int]map[string]float64{},
		suffix: map[int]map[string]float64{},
		total:  map[int]float64{},
	}
	vocab := map[string]bool{}
	for _, s := range corpus {
		prev := -1
		for i, w := range s.Words {
			// punctuation is handled deterministically at decode time;
			// keep it out of the state space entirely (transparent to
			// transitions).
			if _, isPunct := punctTagFor(w); isPunct || IsPunctTag(s.Tags[i]) {
				continue
			}
			t := intern(s.Tags[i])
			lw := strings.ToLower(w)
			vocab[lw] = true
			if c.emit[t] == nil {
				c.emit[t] = map[string]float64{}
				c.suffix[t] = map[string]float64{}
			}
			c.emit[t][lw]++
			c.total[t]++
			for n := 1; n <= 3 && n <= len(lw); n++ {
				c.suffix[t][lw[len(lw)-n:]]++
			}
			if prev < 0 {
				c.init[t]++
			} else {
				c.trans[[2]int{prev, t}]++
			}
			prev = t
		}
	}

	T := len(tags)
	h := &HMM{
		tags:      tags,
		logInit:   make([]float64, T),
		logTrans:  make([][]float64, T),
		logEmit:   make([]map[string]float64, T),
		logSuffix: make([]map[string]float64, T),
		vocab:     vocab,
	}
	var maxTotal float64
	for _, n := range c.total {
		if n > maxTotal {
			maxTotal = n
		}
	}
	h.logFloor = math.Log(1 / (maxTotal + float64(len(vocab)) + 1))
	var initTotal float64
	for _, n := range c.init {
		initTotal += n
	}
	for t := 0; t < T; t++ {
		h.logInit[t] = math.Log((c.init[t] + 1) / (initTotal + float64(T)))
		h.logTrans[t] = make([]float64, T)
		var rowTotal float64
		for t2 := 0; t2 < T; t2++ {
			rowTotal += c.trans[[2]int{t, t2}]
		}
		for t2 := 0; t2 < T; t2++ {
			h.logTrans[t][t2] = math.Log((c.trans[[2]int{t, t2}] + 1) / (rowTotal + float64(T)))
		}
		V := float64(len(vocab))
		h.logEmit[t] = make(map[string]float64, len(c.emit[t]))
		for w, n := range c.emit[t] {
			h.logEmit[t][w] = math.Log((n + 1) / (c.total[t] + V))
		}
		h.logSuffix[t] = make(map[string]float64, len(c.suffix[t]))
		for suf, n := range c.suffix[t] {
			h.logSuffix[t][suf] = math.Log((n + 1) / (c.total[t] + V))
		}
	}
	return h
}

// emission returns log P(word | tag), backing off to suffixes for
// unknown words, with a numeric-shape shortcut to CD.
func (h *HMM) emission(t int, lw string) float64 {
	if p, ok := h.logEmit[t][lw]; ok {
		return p
	}
	if h.vocab[lw] {
		// known word never seen with this tag: shared smoothed floor.
		return h.logFloor
	}
	if looksNumeric(lw) {
		if h.tags[t] == "CD" {
			return math.Log(0.9)
		}
		return h.logFloor * 2
	}
	// take the best-estimated suffix evidence rather than the longest:
	// a rare long suffix ("ats", seen only on "oats") must not shadow a
	// well-attested short one ("s" over all plurals).
	best := math.Inf(-1)
	for n := 3; n >= 1; n-- {
		if n > len(lw) {
			continue
		}
		if p, ok := h.logSuffix[t][lw[len(lw)-n:]]; ok && p > best {
			best = p
		}
	}
	if !math.IsInf(best, -1) {
		return best
	}
	return h.logFloor
}

// Tag runs Viterbi decoding; punctuation is handled deterministically
// like the perceptron tagger.
func (h *HMM) Tag(words []string) []string {
	n := len(words)
	out := make([]string, n)
	if n == 0 {
		return out
	}
	T := len(h.tags)
	delta := make([][]float64, n)
	back := make([][]int, n)
	for i := range delta {
		delta[i] = make([]float64, T)
		back[i] = make([]int, T)
	}
	lw := make([]string, n)
	punct := make([]bool, n)
	for i, w := range words {
		lw[i] = strings.ToLower(w)
		if pt, ok := punctTagFor(w); ok {
			punct[i] = true
			out[i] = pt
		}
	}
	for t := 0; t < T; t++ {
		delta[0][t] = h.logInit[t] + h.emission(t, lw[0])
	}
	for i := 1; i < n; i++ {
		for t := 0; t < T; t++ {
			best, bestScore := 0, math.Inf(-1)
			for tp := 0; tp < T; tp++ {
				if s := delta[i-1][tp] + h.logTrans[tp][t]; s > bestScore {
					bestScore = s
					best = tp
				}
			}
			delta[i][t] = bestScore + h.emission(t, lw[i])
			back[i][t] = best
		}
	}
	bestLast, bestScore := 0, math.Inf(-1)
	for t := 0; t < T; t++ {
		if delta[n-1][t] > bestScore {
			bestScore = delta[n-1][t]
			bestLast = t
		}
	}
	path := make([]int, n)
	path[n-1] = bestLast
	for i := n - 1; i > 0; i-- {
		path[i-1] = back[i][path[i]]
	}
	for i := range out {
		if !punct[i] {
			out[i] = h.tags[path[i]]
		}
	}
	return out
}
