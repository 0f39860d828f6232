package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"recipemodel/internal/breaker"
	"recipemodel/internal/cache"
	"recipemodel/internal/core"
	"recipemodel/internal/crf"
	"recipemodel/internal/flight"
	"recipemodel/internal/index"
	"recipemodel/internal/intern"
	"recipemodel/internal/lemma"
	"recipemodel/internal/ner"
	"recipemodel/internal/nutrition"
	"recipemodel/internal/resilience"
	"recipemodel/internal/similarity"
	"recipemodel/internal/tokenize"
)

// The mirror re-runs the server's handling of a request by calling each
// layer's public function in the order the server does, timing each
// call as a span. It is the "layers" part of the traced replay.

// timed is a span measured on another goroutine, added after it joined.
type timed struct {
	name       string
	tid        int
	start, end time.Duration
	n          int
}

// guards are the admission and memoization layers in front of the
// decode, fresh per replay so they see the same traffic as the servers.
type guards struct {
	cache   *cache.Cache[core.IngredientRecord]
	flights flight.Group[core.IngredientRecord]
	brk     *breaker.Breaker
	lim     *resilience.Limiter
}

func newGuards() *guards {
	return &guards{
		cache: cache.New[core.IngredientRecord](64 << 10),
		brk:   breaker.New(breaker.Config{}),
		lim:   resilience.NewLimiter(1024),
	}
}

type mshard struct {
	id, stride int
	models     []*core.RecipeModel
	ix         *index.Index
	profiles   []nutrition.RecipeProfile
}

// mirror holds the layer state the replay calls into.
type mirror struct {
	ref     *reference
	g       *guards
	dec     *crf.Compiled
	lem     *lemma.Lemmatizer
	weights *similarity.CorpusWeights
	shards  []mshard
	ctx     context.Context
	// mismatches counts replayed layer outputs that differ from what the
	// server produced: an encode that is not byte-equal to the served
	// body, or a Viterbi path that disagrees with the tagger's spans.
	mismatches int
	// decoded holds each phrase's tokens and predicted spans until the
	// request's replay is over, when Viterbi is timed on its own.
	decoded []decoded
	// scratch reused across phrases
	toks []tokenize.Token
	path []int32
	ids  []int32
	offs []int32
}

type decoded struct {
	words []string
	spans []ner.Span
}

// newMirror builds the layer state, timing the corpus build the way the
// server does it at boot and on every reload.
func newMirror(ref *reference) (*mirror, time.Duration) {
	m := &mirror{
		ref: ref,
		g:   newGuards(),
		dec: crf.Compile(ref.pipe.IngredientNER.Model),
		lem: lemma.New(),
		ctx: context.Background(),
	}
	t0 := time.Now()
	m.weights = similarity.LearnWeights(ref.snap.Models)
	est := nutrition.NewEstimator()
	n := min(defaultShards, len(ref.snap.Models))
	for i := 0; i < n; i++ {
		var models []*core.RecipeModel
		for g := i; g < len(ref.snap.Models); g += n {
			models = append(models, ref.snap.Models[g])
		}
		m.shards = append(m.shards, mshard{id: i, stride: n, models: models, ix: index.New(models), profiles: est.EstimateAll(models)})
	}
	return m, time.Since(t0)
}

// serve re-runs the server's handling of r layer by layer and returns
// the body the server should have written.
func (m *mirror) serve(t *tracer, parent int, r request) []byte {
	var body []byte
	switch r.kind {
	case kindAnnotate:
		body = m.annotate(t, parent, r.body)
	case kindBatch:
		body = m.batch(t, parent, r.body)
	case kindSimilar:
		body = m.similar(t, parent, r.body)
	case kindSearch:
		body = m.search(t, parent, r.body)
	default:
		body = m.nutrition(t, parent, r.body)
	}
	m.viterbi(t, parent)
	return body
}

// viterbi times crf.Compiled.AppendDecodeIDs on its own for every
// phrase the request decoded, on the feature IDs the tagger used,
// resolved outside the timer and after the request's other spans so
// their self times stay clean. One untimed decode first warms this
// copy of the weights as the tagger's own decode found them warm.
func (m *mirror) viterbi(t *tracer, parent int) {
	for _, d := range m.decoded {
		m.featureIDs(d.words)
		m.path, _ = m.dec.AppendDecodeIDs(m.path[:0], m.ids, m.offs)
		sp := t.begin("crf.viterbi", parent, groupNone, 1)
		m.path, _ = m.dec.AppendDecodeIDs(m.path[:0], m.ids, m.offs)
		t.end(sp)
		m.checkPath(d.spans)
	}
	m.decoded = m.decoded[:0]
}

func (m *mirror) decodeJSON(t *tracer, parent int, body []byte, v any) bool {
	sp := t.begin("json.decode", parent, groupDecode, 1)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	t.end(sp)
	return err == nil
}

func (m *mirror) encodeJSON(t *tracer, parent int, v any) []byte {
	sp := t.begin("json.encode", parent, groupEncode, 1)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	t.end(sp)
	return buf.Bytes()
}

// admit times a limiter acquire and returns its timed release.
func (m *mirror) admit(t *tracer, parent, weight int) func() {
	sp := t.begin("limiter.acquire", parent, groupGuards, 1)
	release, ok := m.g.lim.TryAcquire(weight)
	t.end(sp)
	return func() {
		if ok {
			sp := t.begin("limiter.acquire", parent, groupGuards, 0)
			release()
			t.end(sp)
		}
	}
}

// decodeStack runs the ingredient decode one layer at a time: sanitize,
// tokenize, NER (feature extraction plus Viterbi) and record assembly.
// It keeps the tokens and spans for viterbi, which splits NER time into
// features and decode.
func (m *mirror) decodeStack(t *tracer, parent int, g group, phrase string) core.IngredientRecord {
	sp := t.begin("core.sanitize", parent, g, 1)
	clean, err := core.Sanitize(phrase, core.DefaultSanitize)
	t.end(sp)
	if err != nil {
		return core.IngredientRecord{Phrase: phrase}
	}
	sp = t.begin("tokenize", parent, g, 1)
	m.toks = tokenize.AppendTo(m.toks[:0], clean)
	words := make([]string, len(m.toks))
	for i, tok := range m.toks {
		words[i] = tok.Text
	}
	t.end(sp)
	sp = t.begin("ner.predict", parent, g, 1)
	spans := m.ref.pipe.IngredientNER.AppendPredict(nil, words)
	t.end(sp)
	sp = t.begin("core.record", parent, g, 1)
	rec := core.RecordFromSpans(phrase, words, spans, m.lem)
	t.end(sp)
	m.decoded = append(m.decoded, decoded{words, spans})
	return rec
}

// featureIDs resolves the tagger's features for words to the compiled
// model's IDs, keeping only model-known ones in extraction order — the
// arena the compiled extractor builds.
func (m *mirror) featureIDs(words []string) {
	feats := m.dec.Features()
	extract := m.ref.pipe.IngredientNER.Extract
	m.ids, m.offs = m.ids[:0], append(m.offs[:0], 0)
	for i := range words {
		for _, f := range extract(words, i) {
			if id := feats.Lookup(f); id != intern.None {
				m.ids = append(m.ids, id)
			}
		}
		m.offs = append(m.offs, int32(len(m.ids)))
	}
}

// checkPath counts a mismatch when the standalone Viterbi path does not
// yield the spans the tagger predicted.
func (m *mirror) checkPath(want []ner.Span) {
	labels := m.dec.Labels()
	tags := make([]string, len(m.path))
	for i, y := range m.path {
		tags[i] = labels[y]
	}
	if got := ner.BIOToSpans(tags); !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
		m.mismatches++
	}
}

// annotate mirrors the cached /annotate path: key and cache lookup,
// then on a miss a coalesced decode behind the breaker and limiter.
func (m *mirror) annotate(t *tracer, parent int, body []byte) []byte {
	var req struct {
		Phrase string `json:"phrase"`
	}
	if !m.decodeJSON(t, parent, body, &req) {
		return nil
	}
	sp := t.begin("cache.get", parent, groupGuards, 1)
	key, kerr := core.CanonicalKey(req.Phrase)
	rec, hit := m.g.cache.Get(key, 1)
	t.end(sp)
	if kerr != nil || !hit {
		fl := t.begin("flight.do", parent, groupGuards, 1)
		rec, _, _ = m.g.flights.Do(m.ctx, "1\x00"+req.Phrase, func() (core.IngredientRecord, error) {
			sp := t.begin("cache.get", fl, groupGuards, 1)
			m.g.cache.Get(key, 1)
			t.end(sp)
			sp = t.begin("breaker.acquire", fl, groupGuards, 1)
			tk := m.g.brk.Acquire()
			t.end(sp)
			release := m.admit(t, fl, 1)
			rec := m.decodeStack(t, fl, groupWork, req.Phrase)
			release()
			sp = t.begin("breaker.acquire", fl, groupGuards, 0)
			m.g.brk.Done(tk, true)
			t.end(sp)
			sp = t.begin("cache.put", fl, groupGuards, 1)
			m.g.cache.Put(key, 1, rec)
			t.end(sp)
			return rec, nil
		})
		t.end(fl)
	}
	rec.Phrase = req.Phrase
	return m.encodeJSON(t, parent, rec)
}

// The /annotate/batch and /query wire shapes, as the server writes them.
type (
	wireBatchItem struct {
		Status string                 `json:"status"`
		Record *core.IngredientRecord `json:"record,omitempty"`
		Code   string                 `json:"code,omitempty"`
		Detail string                 `json:"detail,omitempty"`
		Tier   string                 `json:"tier,omitempty"`
	}
	wireBatch struct {
		Results  []wireBatchItem `json:"results"`
		OK       int             `json:"ok"`
		Rejected int             `json:"rejected"`
		Degraded bool            `json:"degraded,omitempty"`
		Tier     string          `json:"tier,omitempty"`
	}
	wireEnvelope struct {
		Snapshot     string `json:"snapshot"`
		ShardsTotal  int    `json:"shards_total"`
		ShardsServed int    `json:"shards_served"`
		Degraded     bool   `json:"degraded"`
		FailedShards []int  `json:"failed_shards,omitempty"`
		Results      any    `json:"results"`
	}
	wireSimilar struct {
		ID    int     `json:"id"`
		Title string  `json:"title"`
		Score float64 `json:"score"`
	}
	wireSearch struct {
		ID      int    `json:"id"`
		Title   string `json:"title"`
		Cuisine string `json:"cuisine"`
	}
	wireNutrition struct {
		ID        int                     `json:"id"`
		Title     string                  `json:"title"`
		Nutrition nutrition.RecipeProfile `json:"nutrition"`
	}
)

// batch mirrors the cached /annotate/batch path: per-slot cache
// lookups, dedup of the misses, one worker-pool decode of the distinct
// misses, cache fills, envelope encode.
func (m *mirror) batch(t *tracer, parent int, body []byte) []byte {
	var req struct {
		Phrases []string `json:"phrases"`
	}
	if !m.decodeJSON(t, parent, body, &req) {
		return nil
	}
	n := len(req.Phrases)
	recs := make([]core.IngredientRecord, n)
	done := make([]bool, n)
	keys := make([]string, n)
	sp := t.begin("cache.get", parent, groupGuards, n)
	for i, p := range req.Phrases {
		key, err := core.CanonicalKey(p)
		if err != nil {
			continue
		}
		keys[i] = key
		if rec, ok := m.g.cache.Get(key, 1); ok {
			rec.Phrase = p
			recs[i], done[i] = rec, true
		}
	}
	t.end(sp)
	missIdx := map[string]int{}
	var misses, missKeys []string
	for i, p := range req.Phrases {
		if _, seen := missIdx[p]; done[i] || seen {
			continue
		}
		missIdx[p] = len(misses)
		misses = append(misses, p)
		missKeys = append(missKeys, keys[i])
	}
	if len(misses) > 0 {
		sp := t.begin("breaker.acquire", parent, groupGuards, 1)
		tk := m.g.brk.Acquire()
		t.end(sp)
		release := m.admit(t, parent, len(misses))
		sp = t.begin("core.partial", parent, groupWork, len(misses))
		mrecs, _, _ := m.ref.pipe.AnnotateIngredientsPartial(m.ctx, misses, runtime.NumCPU())
		t.end(sp)
		release()
		sp = t.begin("breaker.acquire", parent, groupGuards, 0)
		m.g.brk.Done(tk, true)
		t.end(sp)
		sp = t.begin("cache.put", parent, groupGuards, len(misses))
		for j, key := range missKeys {
			m.g.cache.Put(key, 1, mrecs[j])
		}
		t.end(sp)
		for i, p := range req.Phrases {
			if !done[i] {
				recs[i] = mrecs[missIdx[p]]
				recs[i].Phrase = p
			}
		}
		// The decode stack again per distinct miss, serially, for its
		// per-layer unit costs (outside the additive split).
		for _, p := range misses {
			m.decodeStack(t, parent, groupNone, p)
		}
	}
	out := wireBatch{Results: make([]wireBatchItem, n), OK: n}
	for i := range recs {
		out.Results[i] = wireBatchItem{Status: "ok", Record: &recs[i]}
	}
	return m.encodeJSON(t, parent, out)
}

// fanout runs fn on every shard on its own goroutine, as the server's
// query fan-out does, and records each shard's busy time.
func (m *mirror) fanout(t *tracer, parent int, targets []mshard, fn func(sh mshard, tm *[]timed) any) map[int]any {
	sp := t.begin("query.fanout", parent, groupWork, 1)
	out := make([]any, len(targets))
	tms := make([][]timed, len(targets))
	var wg sync.WaitGroup
	for i, sh := range targets {
		wg.Add(1)
		go func(i int, sh mshard) {
			defer wg.Done()
			s := t.now()
			out[i] = fn(sh, &tms[i])
			tms[i] = append(tms[i], timed{name: "query.shard", tid: 10 + sh.id, start: s, end: t.now(), n: 1})
		}(i, sh)
	}
	wg.Wait()
	t.end(sp)
	served := map[int]any{}
	for i, sh := range targets {
		served[sh.id] = out[i]
		for _, x := range tms[i] {
			t.spans = append(t.spans, span{name: x.name, req: t.req, parent: sp, group: groupNone, tid: x.tid, start: x.start, end: x.end, n: x.n})
		}
	}
	return served
}

func (m *mirror) envelope(t *tracer, parent int, results any) []byte {
	return m.encodeJSON(t, parent, wireEnvelope{
		Snapshot:     m.ref.snap.Version,
		ShardsTotal:  len(m.shards),
		ShardsServed: len(m.shards),
		Results:      results,
	})
}

func (m *mirror) similar(t *tracer, parent int, body []byte) []byte {
	var req struct {
		ID *int `json:"id"`
		K  int  `json:"k"`
	}
	if !m.decodeJSON(t, parent, body, &req) || req.ID == nil {
		return nil
	}
	id, k := *req.ID, req.K
	if k <= 0 {
		k = 10
	}
	release := m.admit(t, parent, 1)
	query := m.ref.snap.Models[id]
	served := m.fanout(t, parent, m.shards, func(sh mshard, tm *[]timed) any {
		s := t.now()
		scored := make([]similarity.Ranked, 0, len(sh.models))
		for local, doc := range sh.models {
			if g := local*sh.stride + sh.id; g != id {
				scored = append(scored, similarity.Ranked{Index: g, Score: similarity.WeightedScore(query, doc, m.weights, similarity.DefaultWeights)})
			}
		}
		mid := t.now()
		top := similarity.TopK(scored, k)
		*tm = append(*tm,
			timed{name: "similarity.score", tid: 10 + sh.id, start: s, end: mid, n: len(scored)},
			timed{name: "similarity.topk", tid: 10 + sh.id, start: mid, end: t.now(), n: 1})
		return top
	})
	lists := make([][]similarity.Ranked, 0, len(served))
	for _, sh := range m.shards {
		lists = append(lists, served[sh.id].([]similarity.Ranked))
	}
	sp := t.begin("similarity.merge", parent, groupWork, 1)
	merged := similarity.MergeTopK(lists, k)
	t.end(sp)
	release()
	hits := make([]wireSimilar, 0, len(merged))
	for _, rk := range merged {
		hits = append(hits, wireSimilar{ID: rk.Index, Title: m.ref.snap.Models[rk.Index].Title, Score: rk.Score})
	}
	return m.envelope(t, parent, hits)
}

func (m *mirror) search(t *tracer, parent int, body []byte) []byte {
	var q index.Query
	if !m.decodeJSON(t, parent, body, &q) {
		return nil
	}
	release := m.admit(t, parent, 1)
	served := m.fanout(t, parent, m.shards, func(sh mshard, tm *[]timed) any {
		s := t.now()
		ids := sh.ix.Search(q)
		*tm = append(*tm, timed{name: "index.search", tid: 10 + sh.id, start: s, end: t.now(), n: 1})
		hits := make([]wireSearch, 0, len(ids))
		for _, local := range ids {
			doc := sh.models[local]
			hits = append(hits, wireSearch{ID: local*sh.stride + sh.id, Title: doc.Title, Cuisine: doc.Cuisine})
		}
		return hits
	})
	release()
	all := []wireSearch{}
	for _, sh := range m.shards {
		all = append(all, served[sh.id].([]wireSearch)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return m.envelope(t, parent, all)
}

func (m *mirror) nutrition(t *tracer, parent int, body []byte) []byte {
	var req struct {
		ID  *int  `json:"id"`
		IDs []int `json:"ids"`
	}
	if !m.decodeJSON(t, parent, body, &req) {
		return nil
	}
	ids := append([]int(nil), req.IDs...)
	if req.ID != nil {
		ids = append(ids, *req.ID)
	}
	sort.Ints(ids)
	byShard := map[int][]int{}
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			byShard[id%len(m.shards)] = append(byShard[id%len(m.shards)], id)
		}
	}
	release := m.admit(t, parent, 1)
	var targets []mshard
	for _, sh := range m.shards {
		if _, ok := byShard[sh.id]; ok {
			targets = append(targets, sh)
		}
	}
	served := m.fanout(t, parent, targets, func(sh mshard, _ *[]timed) any {
		items := make([]wireNutrition, 0, len(byShard[sh.id]))
		for _, id := range byShard[sh.id] {
			local := id / sh.stride
			items = append(items, wireNutrition{ID: id, Title: sh.models[local].Title, Nutrition: sh.profiles[local]})
		}
		return items
	})
	release()
	items := []wireNutrition{}
	for _, sh := range targets {
		items = append(items, served[sh.id].([]wireNutrition)...)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
	return m.envelope(t, parent, items)
}

// partialSpeedup times the batch decode of phrases on one worker and on
// every CPU.
func partialSpeedup(m *mirror, phrases []string) (w1, wn time.Duration) {
	t0 := time.Now()
	_, _, _ = m.ref.pipe.AnnotateIngredientsPartial(m.ctx, phrases, 1)
	t1 := time.Now()
	_, _, _ = m.ref.pipe.AnnotateIngredientsPartial(m.ctx, phrases, runtime.NumCPU())
	return t1.Sub(t0), time.Since(t1)
}

// censusPhrases are ingredient phrases of the fixture corpus, the
// census input for annotate layers a workload does not call.
func censusPhrases(ref *reference, n int) []string {
	var out []string
	for _, doc := range ref.snap.Models {
		for _, ing := range doc.Ingredients {
			if len(out) == n {
				return out
			}
			out = append(out, ing.Phrase)
		}
	}
	return out
}

// census calls every layer once over fixture inputs — annotate and
// batch requests built from corpus phrases, similar and search queries
// over corpus documents — on fresh guards, so a layer the workload
// never calls still has a measured unit cost.
func (m *mirror) census(base time.Time) []span {
	t := &tracer{base: base, req: -1, tid: 1}
	saved := m.g
	m.g = newGuards()
	defer func() { m.g = saved }()
	phrases := censusPhrases(m.ref, 2*batchSize)
	half := len(phrases) / 2
	for _, p := range phrases[:half] {
		m.serve(t, -1, annotateRequest(p))
	}
	// Phrases the annotate requests did not cache, so the batch decodes.
	body, _ := json.Marshal(map[string][]string{"phrases": phrases[half:]})
	m.serve(t, -1, request{kind: kindBatch, body: body})
	rng := rand.New(rand.NewSource(1))
	for id := 0; id < 3; id++ {
		body, _ := json.Marshal(map[string]int{"id": id, "k": similarK})
		m.serve(t, -1, request{kind: kindSimilar, body: body})
	}
	for id := 0; id < 20; id++ {
		body, _ := json.Marshal(searchQuery(m.ref.snap.Models[id], rng))
		m.serve(t, -1, request{kind: kindSearch, body: body})
	}
	return t.spans
}
