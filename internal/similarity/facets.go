// Precomputed facets: the build-once-per-corpus form of the three
// similarity facets. Each learned model's ingredient names, processes
// and process bigrams are interned to int32 IDs and stored as sorted,
// deduplicated sets, so WeightedScore over two corpus recipes is three
// linear merges instead of six map builds and a string sort.
//
// Ingredient IDs are assigned in sorted lowercased-name order. The
// merge therefore visits the union of two ingredient sets in exactly
// the order weightedScoreMaps sums IDF over its sorted names, and the
// weighted Jaccard comes out bit-identical — float addition is not
// associative, and the sharded query service's byte identity rests on
// the last ulp. Process and bigram facets only feed set counts, so
// their IDs follow first-seen order.

package similarity

import (
	"math"
	"slices"
	"strings"

	"recipemodel/internal/core"
)

// facetSpan locates one model's facets in CorpusWeights.ids: the
// ingredient IDs are ids[ing:proc], the process IDs ids[proc:seq] and
// the bigram IDs ids[seq:end].
type facetSpan struct{ ing, proc, seq, end int32 }

func (s facetSpan) ingredients(ids []int32) []int32 { return ids[s.ing:s.proc] }
func (s facetSpan) processes(ids []int32) []int32   { return ids[s.proc:s.seq] }
func (s facetSpan) bigrams(ids []int32) []int32     { return ids[s.seq:s.end] }

// learner accumulates document frequencies and facets over one pass of
// the corpus. Ingredient IDs are provisional (first-seen order) until
// finish renumbers them in sorted-name order.
type learner struct {
	docs    int
	ingID   map[string]int32
	names   []string // provisional ingredient ID → lowercased name
	df      []int    // provisional ingredient ID → document frequency
	procID  map[string]int32
	seqID   map[string]int32
	pairSeq map[uint64]int32 // process ID pair → bigram ID
	ids     []int32
	spans   []facetSpan // in corpus order
	byModel map[*core.RecipeModel]facetSpan
	seq     []int32 // the current model's bigram IDs, reused
}

func newLearner(docs int) *learner {
	return &learner{
		docs:    docs,
		ingID:   map[string]int32{},
		procID:  map[string]int32{},
		seqID:   map[string]int32{},
		pairSeq: map[uint64]int32{},
		spans:   make([]facetSpan, 0, docs),
		byModel: make(map[*core.RecipeModel]facetSpan, docs),
	}
}

// add interns one model's facets and counts its ingredient names
// toward document frequency. It derives the facets exactly as
// ingredientSet, processSet and processBigrams do.
func (l *learner) add(m *core.RecipeModel) {
	var s facetSpan
	s.ing = int32(len(l.ids))
	for i := range m.Ingredients {
		if name := m.Ingredients[i].Name; name != "" {
			l.ids = append(l.ids, l.ingredient(strings.ToLower(name)))
		}
	}
	s.proc = l.closeSet(s.ing)
	for _, id := range l.ids[s.ing:s.proc] {
		l.df[id]++
	}
	l.seq = l.seq[:0]
	var prev string
	var prevID int32
	for i := range m.Events {
		p := strings.ToLower(m.Events[i].Process)
		id := intern(l.procID, p)
		l.ids = append(l.ids, id)
		if prev != "" {
			l.seq = append(l.seq, l.bigram(prev, prevID, p, id))
		}
		prev, prevID = p, id
	}
	s.seq = l.closeSet(s.proc)
	l.ids = append(l.ids, l.seq...)
	s.end = l.closeSet(s.seq)
	l.spans = append(l.spans, s)
	l.byModel[m] = s
}

// ingredient returns the provisional ID of a lowercased name.
func (l *learner) ingredient(name string) int32 {
	id, ok := l.ingID[name]
	if !ok {
		id = int32(len(l.names))
		l.ingID[name] = id
		l.names = append(l.names, name)
		l.df = append(l.df, 0)
	}
	return id
}

// bigram returns the ID of the bigram prev→p. Bigrams are interned by
// the joined key processBigrams builds, so distinct pairs that join to
// the same key share an ID; the pair cache builds each key once.
func (l *learner) bigram(prev string, prevID int32, p string, pID int32) int32 {
	pair := uint64(uint32(prevID))<<32 | uint64(uint32(pID))
	id, ok := l.pairSeq[pair]
	if !ok {
		id = intern(l.seqID, prev+"→"+p)
		l.pairSeq[pair] = id
	}
	return id
}

// closeSet sorts and deduplicates ids[start:] in place and returns the
// set's end offset.
func (l *learner) closeSet(start int32) int32 {
	set := l.ids[start:]
	slices.Sort(set)
	l.ids = l.ids[:int(start)+len(slices.Compact(set))]
	return int32(len(l.ids))
}

// finish renumbers ingredients in sorted-name order, computes their
// IDF, and returns the immutable weights.
func (l *learner) finish() *CorpusWeights {
	order := make([]int32, len(l.names)) // final ID → provisional ID
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int { return strings.Compare(l.names[x], l.names[y]) })
	final := make([]int32, len(order)) // provisional ID → final ID
	idf := make([]float64, len(order))
	for f, p := range order {
		final[p] = int32(f)
		idf[f] = math.Log(float64(l.docs+1) / float64(l.df[p]+1))
		l.ingID[l.names[p]] = int32(f)
	}
	for _, s := range l.spans {
		ing := s.ingredients(l.ids)
		for i, p := range ing {
			ing[i] = final[p]
		}
		slices.Sort(ing)
	}
	return &CorpusWeights{ingID: l.ingID, idf: idf, docs: l.docs, ids: l.ids, byModel: l.byModel}
}

// intern returns key's ID in ids, adding it if it is new.
func intern(ids map[string]int32, key string) int32 {
	id, ok := ids[key]
	if !ok {
		id = int32(len(ids))
		ids[key] = id
	}
	return id
}
