package similarity

import (
	"math"
	"sort"
	"strings"

	"recipemodel/internal/core"
)

// CorpusWeights holds inverse-document-frequency weights learned from
// a mined corpus: sharing a rare ingredient (saffron) says more about
// two recipes than sharing a ubiquitous one (salt). It also holds the
// precomputed facets of every learned model (see facets.go), so that
// scoring two corpus recipes is three merges over sorted IDs. It is
// immutable once LearnWeights returns and safe for concurrent use.
type CorpusWeights struct {
	// ingID interns lowercased ingredient names; IDs follow sorted-name
	// order, and idf is indexed by them.
	ingID map[string]int32
	idf   []float64
	docs  int
	// ids holds every learned model's facet IDs back to back; byModel
	// locates one model's three facets in it.
	ids     []int32
	byModel map[*core.RecipeModel]facetSpan
}

// LearnWeights computes IDF over the ingredient names of a corpus and,
// in the same pass, each model's ingredient, process and process-bigram
// facets as sorted ID sets. The result is keyed by model pointer and
// captures the models as they are now: they must not be mutated
// afterwards, or scores involving them silently use the old facets.
// Models not passed here are still scored, through the slower
// map-based path.
func LearnWeights(models []*core.RecipeModel) *CorpusWeights {
	l := newLearner(len(models))
	for _, m := range models {
		l.add(m)
	}
	return l.finish()
}

// IDF returns the weight for an ingredient name; unseen names get the
// maximum possible weight (they are by definition rare).
func (w *CorpusWeights) IDF(name string) float64 {
	if id, ok := w.ingID[strings.ToLower(name)]; ok {
		return w.idf[id]
	}
	return math.Log(float64(w.docs + 1))
}

// WeightedScore is Score with the ingredient facet replaced by
// IDF-weighted Jaccard: Σ idf(shared) / Σ idf(union). When both models
// were learned by cw it merges their precomputed facets without
// allocating; otherwise it builds the facet sets from the models.
func WeightedScore(a, b *core.RecipeModel, cw *CorpusWeights, w Weights) float64 {
	fa, okA := cw.byModel[a]
	fb, okB := cw.byModel[b]
	if !okA || !okB {
		return weightedScoreMaps(a, b, cw, w)
	}
	return blend(w,
		cw.weightedJaccardIDs(fa.ingredients(cw.ids), fb.ingredients(cw.ids)),
		jaccardIDs(fa.processes(cw.ids), fb.processes(cw.ids)),
		jaccardIDs(fa.bigrams(cw.ids), fb.bigrams(cw.ids)))
}

// weightedScoreMaps is WeightedScore computed from the models
// themselves: the path for models outside the learned corpus, and the
// reference the precomputed path is pinned bit-identical to.
func weightedScoreMaps(a, b *core.RecipeModel, cw *CorpusWeights, w Weights) float64 {
	sa, sb := ingredientSet(a), ingredientSet(b)
	// Sum in sorted-name order: float addition is not associative and
	// Go randomizes map iteration, so summing in map order makes the
	// score vary between calls at the last ulp — enough to break the
	// byte-identity contract of the sharded query service.
	names := make([]string, 0, len(sa)+len(sb))
	for name := range sa {
		names = append(names, name)
	}
	for name := range sb {
		if !sa[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var inter, union float64
	for _, name := range names {
		idf := cw.IDF(name)
		union += idf
		if sa[name] && sb[name] {
			inter += idf
		}
	}
	ingScore := 0.0
	if union > 0 {
		ingScore = inter / union
	}
	return blend(w, ingScore,
		jaccard(processSet(a), processSet(b)),
		jaccard(processBigrams(a), processBigrams(b)))
}

// blend mixes the three facet scores. Both scoring paths go through it
// so they round identically.
func blend(w Weights, ingredients, processes, sequence float64) float64 {
	return w.Ingredients*ingredients + w.Processes*processes + w.Sequence*sequence
}

// weightedJaccardIDs is the IDF-weighted Jaccard of two sorted
// ingredient ID sets. IDs follow sorted-name order, so the merge adds
// the same weights in the same order as weightedScoreMaps.
func (w *CorpusWeights) weightedJaccardIDs(a, b []int32) float64 {
	var inter, union float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			union += w.idf[a[i]]
			i++
		case a[i] > b[j]:
			union += w.idf[b[j]]
			j++
		default:
			idf := w.idf[a[i]]
			union += idf
			inter += idf
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		union += w.idf[a[i]]
	}
	for ; j < len(b); j++ {
		union += w.idf[b[j]]
	}
	if union > 0 {
		return inter / union
	}
	return 0
}

// jaccardIDs is jaccard over two sorted, deduplicated ID sets.
func jaccardIDs(a, b []int32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}
