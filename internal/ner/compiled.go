// The compiled tagging fast path. CompileFor pre-resolves everything
// the legacy extractor does per token — feature-name hashing, string
// lowering, lemmatization, gazetteer membership — into interned-ID
// lookups against packed tables, and decodes over pooled scratch so
// steady-state tagging performs zero per-token heap allocations.
//
// Determinism contract: the compiled extractor must produce, for every
// token, exactly the model-known subset of the legacy extractor's
// feature list, in the same order. Combined with the bit-identical
// crf.Compiled decoder this makes PredictTags/Predict byte-identical
// to the legacy path. The contract is pinned three ways: a canary
// self-check at compile time (CompileFor fails loudly if task/opts
// don't match the extractor the model was trained with), randomized
// old-vs-compiled tests in this package, and the full-corpus
// equivalence test at the repo root.

package ner

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"recipemodel/internal/crf"
	"recipemodel/internal/fraction"
	"recipemodel/internal/gazetteer"
	"recipemodel/internal/intern"
)

// Task selects which feature extractor a compiled tagger replicates.
type Task int

// The two tagging tasks of the paper: ingredient phrases (Table II)
// and instruction steps (§III.A).
const (
	TaskIngredient Task = iota
	TaskInstruction
)

// Gazetteer membership bits, one per lexicon consulted by
// gazetteerFeatures.
const (
	mIngr uint16 = 1 << iota
	mUnit
	mState
	mSize
	mTemp
	mDF
	mUtensil
	mTech
)

// compiled is the packed form of a Tagger's extractor + decoder.
// Immutable after build; all mutable state lives in pooled scratch.
type compiled struct {
	task Task
	opts FeatureOptions
	dec  *crf.Compiled
	lex  *sharedLex

	feats *intern.Table

	// Static feature IDs (intern.None when the model never saw them).
	fBias, fIsnum, fPastish, fHyphen, fFirst, fLast int32
	fPrevBOS, fPrevIsnum, fNextEOS, fInparen        int32
	fImperative                                     int32
	fGazIngr, fGazUnit, fGazState, fGazSize         int32
	fGazTemp, fGazDF, fGazUtensil, fGazTech         int32
	fGazmwIngr, fGazmwUtensil                       int32

	// Interned gazetteer union: masks[id] is the OR of membership bits
	// for term id.
	gaz   *intern.Table
	masks []uint16

	// typ[id] is the entity type of IO label id: "" for O.
	typ []string

	// Word cache: every word-local feature (everything but shape=,
	// which is case-sensitive, and the position/context features) is a
	// pure function of the lowered token, and the model's own "w="
	// features enumerate the training vocabulary — so the whole local
	// block is resolved at compile time. vocab maps a lowered token to
	// its entries index; mwWords holds the individual words of
	// multiword gazetteer terms, the skip-filter for multiword probes.
	vocab   *intern.Table
	entries []wordEntry
	mwWords *intern.Table

	pool sync.Pool // *extractScratch
}

// wordEntry is the precomputed word-local feature set of one
// vocabulary word. The ID slices carry only model-known features, in
// legacy extraction order, so the hot loop appends them verbatim.
type wordEntry struct {
	pre  []int32 // w=, suf3=, suf2=, pre2= (shape= is emitted between)
	post []int32 // lemma=, isnum, pastish, hyphen
	gaz  []int32 // single-token gazetteer features
	// IDs of this word seen as a neighbor: "w-1=<w>" etc.
	prev1, prev2, next1, next2 int32
	isnum                      bool // fraction.LooksLower of the word
	mw                         bool // occurs inside a multiword gazetteer term
}

// extractScratch holds one phrase's working buffers. Every slice is
// length-reset before use, so a scratch returned to the pool after a
// contained panic cannot leak stale state into a later phrase.
type extractScratch struct {
	low    []byte  // lowered-token arena
	lowOff []int32 // n+1 offsets into low
	lem    []byte  // lemma arena
	lemOff []int32
	isnum  []bool  // per-token fraction.LooksLower
	wids   []int32 // per-token vocab entry ID (intern.None = uncached)
	mw     []bool  // per-token multiword-gazetteer-word membership
	ids    []int32 // feature-ID arena
	offs   []int32 // n+1 offsets into ids
	key    []byte  // feature-key / gazetteer-candidate build buffer
	path   []int32 // decoded label IDs
}

func (s *extractScratch) lowTok(i int) []byte { return s.low[s.lowOff[i]:s.lowOff[i+1]] }
func (s *extractScratch) lemTok(i int) []byte { return s.lem[s.lemOff[i]:s.lemOff[i+1]] }

// CompileFor builds the compiled fast path for the tagger, replicating
// the extractor for the given task and options. It verifies the
// compiled extractor against t.Extract on canary phrases and fails
// (leaving the tagger on the legacy path) if they disagree — the
// guard against compiling with a task/opts pair that doesn't match
// how the model was trained. It also fails on a label that is not O
// or I-X: the compiled span assembly reads IO labels only.
func (t *Tagger) CompileFor(task Task, opts FeatureOptions) error {
	if t.Model == nil {
		return errors.New("ner: CompileFor: tagger has no model")
	}
	if t.Extract == nil {
		return errors.New("ner: CompileFor: tagger has no extractor to verify against")
	}
	for _, l := range t.Model.Labels {
		if !IsIOLabel(l) {
			return fmt.Errorf("ner: CompileFor: label %q is not O or I-<type>; the compiled path decodes IO labels only", l)
		}
	}
	c := newCompiled(t.Model, task, opts)
	if err := c.verify(t.Extract); err != nil {
		return err
	}
	t.compiled = c
	return nil
}

// Compiled reports whether the tagger has an active compiled fast
// path.
func (t *Tagger) Compiled() bool { return t.compiled != nil }

func newCompiled(m *crf.Model, task Task, opts FeatureOptions) *compiled {
	c := &compiled{task: task, opts: opts, dec: m.Compile(), lex: newSharedLex()}
	c.feats = c.dec.Features()

	f := c.feats.Lookup
	c.fBias = f("bias")
	c.fIsnum = f("isnum")
	c.fPastish = f("pastish")
	c.fHyphen = f("hyphen")
	c.fFirst = f("first")
	c.fLast = f("last")
	c.fPrevBOS = f("w-1=-BOS-")
	c.fPrevIsnum = f("w-1isnum")
	c.fNextEOS = f("w+1=-EOS-")
	c.fInparen = f("inparen")
	c.fImperative = f("imperative")
	c.fGazIngr = f("gaz=ingr")
	c.fGazUnit = f("gaz=unit")
	c.fGazState = f("gaz=state")
	c.fGazSize = f("gaz=size")
	c.fGazTemp = f("gaz=temp")
	c.fGazDF = f("gaz=df")
	c.fGazUtensil = f("gaz=utensil")
	c.fGazTech = f("gaz=tech")
	c.fGazmwIngr = f("gazmw=ingr")
	c.fGazmwUtensil = f("gazmw=utensil")

	// Interned gazetteer union with membership masks, built in sorted
	// term order for determinism.
	mm := make(map[string]uint16)
	addLex := func(l *gazetteer.Lexicon, bit uint16) {
		for _, t := range l.Terms() {
			mm[t] |= bit
		}
	}
	addLex(c.lex.ingredients, mIngr)
	addLex(c.lex.units, mUnit)
	addLex(c.lex.states, mState)
	addLex(c.lex.sizes, mSize)
	addLex(c.lex.temps, mTemp)
	addLex(c.lex.dryFresh, mDF)
	addLex(c.lex.utensils, mUtensil)
	addLex(c.lex.techniques, mTech)
	terms := make([]string, 0, len(mm))
	for t := range mm {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	c.gaz = intern.FromSorted(terms)
	c.masks = make([]uint16, len(terms))
	for i, t := range terms {
		c.masks[i] = mm[t]
	}

	// Multiword skip-filter: a span candidate can only match a
	// multiword term if every one of its words occurs in some multiword
	// term of a lexicon the multiword features consult (ingredients,
	// and utensils for the instruction task) — checking the per-token
	// bit is far cheaper than building and hashing the joined
	// candidate.
	mwSet := make(map[string]struct{})
	for i, t := range terms {
		if c.masks[i]&(mIngr|mUtensil) == 0 || !strings.Contains(t, " ") {
			continue
		}
		for _, w := range strings.Split(t, " ") {
			mwSet[w] = struct{}{}
		}
	}
	c.mwWords = intern.FromMapKeys(mwSet)

	c.buildWordCache()

	labels := c.dec.Labels()
	c.typ = make([]string, len(labels))
	for id, lab := range labels {
		if lab != Outside {
			c.typ[id] = lab[2:]
		}
	}
	return c
}

// buildWordCache precomputes a wordEntry for every word of the
// model's training vocabulary, enumerated from its "w=" features. The
// feature table is built in sorted-name order, so the "w=" slice of it
// — and therefore vocab and entries — is deterministic.
func (c *compiled) buildWordCache() {
	var words []string
	for id := int32(0); id < int32(c.feats.Len()); id++ {
		if name := c.feats.Name(id); len(name) > 2 && name[:2] == "w=" {
			words = append(words, name[2:])
		}
	}
	c.vocab = intern.FromSorted(words)
	c.entries = make([]wordEntry, len(words))
	for i, w := range words {
		c.entries[i] = c.buildEntry(w)
	}
}

// buildEntry resolves every word-local feature of one lowered
// vocabulary word, mirroring the slow path of extract exactly (same
// features, same order, same model-known filtering).
func (c *compiled) buildEntry(lw string) wordEntry {
	var e wordEntry
	lwb := []byte(lw)
	addKnown := func(dst []int32, id int32) []int32 {
		if id != intern.None {
			dst = append(dst, id)
		}
		return dst
	}
	e.pre = addKnown(e.pre, c.feats.Lookup("w="+lw))
	e.pre = addKnown(e.pre, c.feats.Lookup("suf3="+string(sufBytes(lwb, 3))))
	e.pre = addKnown(e.pre, c.feats.Lookup("suf2="+string(sufBytes(lwb, 2))))
	e.pre = addKnown(e.pre, c.feats.Lookup("pre2="+string(preBytes(lwb, 2))))

	lem := c.lex.lem.LemmaAuto(lw)
	if c.opts.Lemmas {
		e.post = addKnown(e.post, c.feats.Lookup("lemma="+lem))
	}
	e.isnum = fraction.LooksLower(lwb)
	if e.isnum {
		e.post = addKnown(e.post, c.fIsnum)
	}
	if strings.HasSuffix(lw, "ed") || strings.HasSuffix(lw, "en") {
		e.post = addKnown(e.post, c.fPastish)
	}
	if strings.ContainsRune(lw, '-') {
		e.post = addKnown(e.post, c.fHyphen)
	}

	m := c.gazMask(lwb) | c.gazMask([]byte(lem))
	for _, g := range [...]struct {
		bit uint16
		id  int32
	}{
		{mIngr, c.fGazIngr}, {mUnit, c.fGazUnit}, {mState, c.fGazState},
		{mSize, c.fGazSize}, {mTemp, c.fGazTemp}, {mDF, c.fGazDF},
	} {
		if m&g.bit != 0 {
			e.gaz = addKnown(e.gaz, g.id)
		}
	}
	if c.task == TaskInstruction {
		if m&mUtensil != 0 {
			e.gaz = addKnown(e.gaz, c.fGazUtensil)
		}
		if m&mTech != 0 {
			e.gaz = addKnown(e.gaz, c.fGazTech)
		}
	}

	e.prev1 = c.feats.Lookup("w-1=" + lw)
	e.prev2 = c.feats.Lookup("w-2=" + lw)
	e.next1 = c.feats.Lookup("w+1=" + lw)
	e.next2 = c.feats.Lookup("w+2=" + lw)
	e.mw = c.mwWords.Lookup(lw) != intern.None
	return e
}

func (c *compiled) getScratch() *extractScratch {
	s, _ := c.pool.Get().(*extractScratch)
	if s == nil {
		s = &extractScratch{
			low: make([]byte, 0, 256), lowOff: make([]int32, 0, 32),
			lem: make([]byte, 0, 256), lemOff: make([]int32, 0, 32),
			isnum: make([]bool, 0, 32), wids: make([]int32, 0, 32),
			mw:  make([]bool, 0, 32),
			ids: make([]int32, 0, 512), offs: make([]int32, 0, 32),
			key:  make([]byte, 0, 64),
			path: make([]int32, 0, 32),
		}
	}
	return s
}

func (c *compiled) gazMask(b []byte) uint16 {
	id := c.gaz.LookupBytes(b)
	if id == intern.None {
		return 0
	}
	return c.masks[id]
}

// emit appends a static feature ID if the model knows it. Skipping
// unknown features here (rather than filtering later) preserves the
// legacy value-addition order over the model-known subset, which is
// what bit-identical decoding requires.
func (c *compiled) emit(s *extractScratch, id int32) {
	if id != intern.None {
		s.ids = append(s.ids, id)
	}
}

// emitKey builds prefix+val in the key buffer and emits its ID if the
// model knows the feature.
func (c *compiled) emitKey(s *extractScratch, prefix string, val []byte) {
	s.key = append(s.key[:0], prefix...)
	s.key = append(s.key, val...)
	if id := c.feats.LookupBytes(s.key); id != intern.None {
		s.ids = append(s.ids, id)
	}
}

// extract fills s.ids/s.offs with the interned feature stream for
// tokens, replicating baseFeatures + gazetteerFeatures (+ imperative)
// feature-for-feature over the model-known subset.
func (c *compiled) extract(s *extractScratch, tokens []string) {
	n := len(tokens)

	s.low = s.low[:0]
	s.lowOff = append(s.lowOff[:0], 0)
	s.wids = s.wids[:0]
	s.isnum = s.isnum[:0]
	s.mw = s.mw[:0]
	for i, w := range tokens {
		s.low = intern.AppendLower(s.low, w)
		s.lowOff = append(s.lowOff, int32(len(s.low)))
		lw := s.lowTok(i)
		wid := c.vocab.LookupBytes(lw)
		s.wids = append(s.wids, wid)
		if wid != intern.None {
			e := &c.entries[wid]
			s.isnum = append(s.isnum, e.isnum)
			s.mw = append(s.mw, e.mw)
		} else {
			s.isnum = append(s.isnum, fraction.LooksLower(lw))
			s.mw = append(s.mw, c.mwWords.LookupBytes(lw) != intern.None)
		}
	}
	// Lemma arena: only uncached words ever read their span — cached
	// words folded the lemma into their entry at compile time.
	// (gazetteerFeatures lemmatizes unconditionally, so the arena is
	// needed whenever either feature family is on.)
	if c.opts.Lemmas || c.opts.Gazetteers {
		s.lem = s.lem[:0]
		s.lemOff = append(s.lemOff[:0], 0)
		for i := 0; i < n; i++ {
			if s.wids[i] == intern.None {
				s.lem = c.lex.lem.AppendAuto(s.lem, s.lowTok(i))
			}
			s.lemOff = append(s.lemOff, int32(len(s.lem)))
		}
	}

	s.ids = s.ids[:0]
	s.offs = append(s.offs[:0], 0)
	depth := 0
	for i := 0; i < n; i++ {
		c.emit(s, c.fBias)
		var e *wordEntry
		if wid := s.wids[i]; wid != intern.None {
			e = &c.entries[wid]
			s.ids = append(s.ids, e.pre...)
		} else {
			lw := s.lowTok(i)
			c.emitKey(s, "w=", lw)
			c.emitKey(s, "suf3=", sufBytes(lw, 3))
			c.emitKey(s, "suf2=", sufBytes(lw, 2))
			c.emitKey(s, "pre2=", preBytes(lw, 2))
		}
		s.key = append(s.key[:0], "shape="...)
		s.key = appendShape(s.key, tokens[i])
		if id := c.feats.LookupBytes(s.key); id != intern.None {
			s.ids = append(s.ids, id)
		}
		if e != nil {
			s.ids = append(s.ids, e.post...)
		} else {
			lw := s.lowTok(i)
			if c.opts.Lemmas {
				c.emitKey(s, "lemma=", s.lemTok(i))
			}
			if s.isnum[i] {
				c.emit(s, c.fIsnum)
			}
			if hasSuffixB(lw, "ed") || hasSuffixB(lw, "en") {
				c.emit(s, c.fPastish)
			}
			if containsByte(lw, '-') {
				c.emit(s, c.fHyphen)
			}
		}
		switch {
		case i == 0:
			c.emit(s, c.fFirst)
		case i == n-1:
			c.emit(s, c.fLast)
		}
		if i > 0 {
			if wp := s.wids[i-1]; wp != intern.None {
				c.emit(s, c.entries[wp].prev1)
			} else {
				c.emitKey(s, "w-1=", s.lowTok(i-1))
			}
			if s.isnum[i-1] {
				c.emit(s, c.fPrevIsnum)
			}
		} else {
			c.emit(s, c.fPrevBOS)
		}
		if i > 1 {
			if wp := s.wids[i-2]; wp != intern.None {
				c.emit(s, c.entries[wp].prev2)
			} else {
				c.emitKey(s, "w-2=", s.lowTok(i-2))
			}
		}
		if i+1 < n {
			if wn := s.wids[i+1]; wn != intern.None {
				c.emit(s, c.entries[wn].next1)
			} else {
				c.emitKey(s, "w+1=", s.lowTok(i+1))
			}
		} else {
			c.emit(s, c.fNextEOS)
		}
		if i+2 < n {
			if wn := s.wids[i+2]; wn != intern.None {
				c.emit(s, c.entries[wn].next2)
			} else {
				c.emitKey(s, "w+2=", s.lowTok(i+2))
			}
		}
		if depth > 0 {
			c.emit(s, c.fInparen)
		}
		if c.opts.Gazetteers {
			if e != nil {
				s.ids = append(s.ids, e.gaz...)
			} else {
				c.gazSingles(s, i)
			}
			c.gazMultiword(s, i, n)
		}
		if c.task == TaskInstruction && i == 0 {
			c.emit(s, c.fImperative)
		}
		s.offs = append(s.offs, int32(len(s.ids)))
		// Depth counts brackets strictly before the next token,
		// matching the legacy j<i scan.
		switch tokens[i] {
		case "(", "[":
			depth++
		case ")", "]":
			depth--
		}
	}
}

// gazSingles emits the single-token gazetteer features of an uncached
// token (the cached form is wordEntry.gaz).
func (c *compiled) gazSingles(s *extractScratch, i int) {
	m := c.gazMask(s.lowTok(i)) | c.gazMask(s.lemTok(i))
	if m&mIngr != 0 {
		c.emit(s, c.fGazIngr)
	}
	if m&mUnit != 0 {
		c.emit(s, c.fGazUnit)
	}
	if m&mState != 0 {
		c.emit(s, c.fGazState)
	}
	if m&mSize != 0 {
		c.emit(s, c.fGazSize)
	}
	if m&mTemp != 0 {
		c.emit(s, c.fGazTemp)
	}
	if m&mDF != 0 {
		c.emit(s, c.fGazDF)
	}
	if c.task == TaskInstruction {
		if m&mUtensil != 0 {
			c.emit(s, c.fGazUtensil)
		}
		if m&mTech != 0 {
			c.emit(s, c.fGazTech)
		}
	}
}

// gazMultiword probes multiword membership around i. The candidate is
// the lowered tokens joined by spaces; ToLower distributes over join,
// so this equals the legacy ToLower(Join(raw)) byte-for-byte. Windows
// containing a word that occurs in no multiword term are skipped
// without building the candidate — the mw bits make that a slice read.
func (c *compiled) gazMultiword(s *extractScratch, i, n int) {
	for span := 2; span <= 3; span++ {
		for start := i - span + 1; start <= i; start++ {
			if start < 0 || start+span > n {
				continue
			}
			ok := true
			for j := start; j < start+span; j++ {
				if !s.mw[j] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			s.key = s.key[:0]
			for j := start; j < start+span; j++ {
				if j > start {
					s.key = append(s.key, ' ')
				}
				s.key = append(s.key, s.lowTok(j)...)
			}
			cm := c.gazMask(s.key)
			if cm&mIngr != 0 {
				c.emit(s, c.fGazmwIngr)
			}
			if c.task == TaskInstruction && cm&mUtensil != 0 {
				c.emit(s, c.fGazmwUtensil)
			}
		}
	}
}

// appendPredict extracts, decodes, and appends the predicted spans,
// allocating nothing per token (and nothing at all once spans has
// capacity).
func (c *compiled) appendPredict(spans []Span, tokens []string) []Span {
	n := len(tokens)
	if n == 0 {
		return spans
	}
	s := c.getScratch()
	defer c.pool.Put(s)
	c.extract(s, tokens)
	s.path, _ = c.dec.AppendDecodeIDs(s.path[:0], s.ids, s.offs)
	// Span assembly over label IDs, BIOToSpans on IO labels: each run
	// of one type is a span, closed by O or by a change of type.
	curStart := -1
	var curType string
	for i := 0; i < n; i++ {
		t := c.typ[s.path[i]]
		if curStart >= 0 && t != curType {
			spans = append(spans, Span{curStart, i, curType})
			curStart = -1
		}
		if curStart < 0 && t != "" {
			curStart, curType = i, t
		}
	}
	if curStart >= 0 {
		spans = append(spans, Span{curStart, n, curType})
	}
	return spans
}

func (c *compiled) predictTags(tokens []string) []string {
	s := c.getScratch()
	defer c.pool.Put(s)
	c.extract(s, tokens)
	s.path, _ = c.dec.AppendDecodeIDs(s.path[:0], s.ids, s.offs)
	labels := c.dec.Labels()
	out := make([]string, len(tokens))
	for i, y := range s.path {
		out[i] = labels[y]
	}
	return out
}

// canaryPhrases exercise every feature family: quantities and
// fractions, parenthesized packaging, hyphens, multiword gazetteer
// hits, lemmatizable plurals, mixed case, non-ASCII, imperative
// position, and a single-token phrase.
var canaryPhrases = [][]string{
	{"1", "1/2", "cups", "chopped", "tomatoes", ",", "softened"},
	{"2", "(", "8", "ounce", ")", "packages", "cream", "cheese", ",", "cubed"},
	{"Preheat", "the", "Olive", "oil", "in", "a", "large", "frying", "pan"},
	{"add", "half-and-half", "to", "the", "sauté", "pan", "über", "½"},
	{"salt"},
	{"Stir", "in", "one", "DOZEN", "egg", "whites", "(", "beaten", ")"},
}

// verify compares the compiled feature stream against the legacy
// extractor on the canary phrases. Any model-known feature produced by
// one side and not the other — or out of order — is a compile error.
func (c *compiled) verify(extract Extractor) error {
	s := c.getScratch()
	defer c.pool.Put(s)
	var want []int32
	for _, toks := range canaryPhrases {
		c.extract(s, toks)
		for i := range toks {
			want = want[:0]
			for _, f := range extract(toks, i) {
				if id := c.feats.Lookup(f); id != intern.None {
					want = append(want, id)
				}
			}
			got := s.ids[s.offs[i]:s.offs[i+1]]
			if !idsEqual(got, want) {
				return fmt.Errorf(
					"ner: compiled extractor disagrees with legacy extractor at %q token %d (%q): got %s, want %s; task/opts passed to CompileFor likely differ from training",
					strings.Join(toks, " "), i, toks[i], c.idNames(got), c.idNames(want))
			}
		}
	}
	return nil
}

func idsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (c *compiled) idNames(ids []int32) string {
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = c.feats.Name(id)
	}
	return "[" + strings.Join(names, " ") + "]"
}

// appendShape appends shape(w), replicating its quirks exactly
// (initial `last` of rune 0, consecutive-duplicate collapsing).
func appendShape(dst []byte, w string) []byte {
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
			dst = utf8.AppendRune(dst, c)
			last = c
		}
	}
	return dst
}

func sufBytes(w []byte, n int) []byte {
	if len(w) <= n {
		return w
	}
	return w[len(w)-n:]
}

func preBytes(w []byte, n int) []byte {
	if len(w) <= n {
		return w
	}
	return w[:n]
}

func hasSuffixB(b []byte, s string) bool {
	return len(b) >= len(s) && string(b[len(b)-len(s):]) == s
}

func containsByte(b []byte, c byte) bool {
	for _, x := range b {
		if x == c {
			return true
		}
	}
	return false
}
