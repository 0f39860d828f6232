package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"recipemodel/internal/core"
	"recipemodel/internal/index"
	"recipemodel/internal/recipedb"
)

// Traffic shape constants. The annotate rates sit well below the
// closed-loop capacity (≈20k req/s on two cores) so the open-loop phase
// measures latency, not a backlog. query-mix runs at 20 req/s: a
// /query/similar over 5,000 documents keeps both cores busy for tens of
// milliseconds, and at this rate it does so a sixth of the time, which
// keeps the median latency of the cheap queries clear of that
// interference rather than on its edge.
const (
	annotateRate = 3000.0
	queryRate    = 20.0
	// hotPhrases and tailPhrases are the DESIGN §13 heavy-tail mix: 90%
	// of requests name one of 20 phrases, 10% one of 2,000.
	hotPhrases  = 20
	tailPhrases = 2000
	hotShare    = 0.9
	// batchSize lines per /annotate/batch; batchCount batches make a
	// stream of 81,920 lines, longer than the server's 65,536-entry
	// cache, so cycling it does not turn misses into hits.
	batchSize  = 256
	batchCount = 320
	// similarK is the neighbour count every /query/similar asks for.
	similarK = 10
	// reloadEvery spaces the corpus reloads query-mix sends during its
	// measured phase; the first lands reloadEvery/2 into it.
	reloadEvery = 10 * time.Second
	// capacityPool bounds the distinct phrases annotate-cold generates
	// for its closed-loop capacity phase (5 s at up to 30k req/s). Past
	// it the stream wraps and repeats would hit the cache; the result
	// records whether that happened.
	capacityPool = 160000
)

// kind says how the oracle checks a response.
type kind int

const (
	kindAnnotate kind = iota
	kindBatch
	kindSimilar
	kindSearch
	kindNutrition
	kindReload
)

// query reports whether k is one of the /query endpoints.
func (k kind) query() bool { return k == kindSimilar || k == kindSearch || k == kindNutrition }

// request is one pre-rendered HTTP request of a workload's stream.
type request struct {
	kind kind
	path string
	body []byte
	// wire is the complete HTTP/1.1 request, written to a connection as is.
	wire []byte
	// phrases are the annotate inputs (one, or a batch's lines).
	phrases []string
}

func newRequest(k kind, path string, body []byte, phrases []string) request {
	wire := fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
	head := len(wire)
	wire = append(wire, body...)
	return request{kind: k, path: path, body: wire[head:], wire: wire, phrases: phrases}
}

// stream is a workload's generated traffic. open holds the open-loop
// requests in send order, warm-up first, with due[i] the time after
// phase start at which open[i] is sent; closed holds the requests the
// closed-loop phase cycles through.
type stream struct {
	open []request
	due  []time.Duration
	// lanes[i], when set, picks the connection open[i] is sent on
	// (modulo the connection count); otherwise requests alternate.
	lanes  []int
	closed []request
	// reloads are the due times of corpus reloads, sent beside the
	// open-loop requests on a connection of their own.
	reloads []time.Duration
}

// digest is the sha256 of every request the stream holds, in order, so
// two results can show they drove identical traffic.
func (s stream) digest() string {
	h := sha256.New()
	for _, part := range [][]request{s.open, s.closed} {
		for _, r := range part {
			h.Write(r.wire)
		}
	}
	for i, d := range s.due {
		h.Write(strconv.AppendInt(nil, int64(d), 10))
		if s.lanes != nil {
			h.Write(strconv.AppendInt(nil, int64(s.lanes[i]), 10))
		}
	}
	for _, d := range s.reloads {
		h.Write(strconv.AppendInt(nil, int64(d), 10))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// genParams is what a stream generator needs: the seed, the open-loop
// window it must fill and, for query traffic, the corpus it addresses.
type genParams struct {
	seed    int64
	rate    float64 // offered req/s, already scaled
	warmup  time.Duration
	measure time.Duration
	// docs returns the corpus the server serves; only query traffic,
	// which addresses documents, calls it.
	docs func() ([]*core.RecipeModel, error)
}

// openCount is how many open-loop requests fill warm-up plus the
// measured phase at the offered rate.
func (g genParams) openCount() int {
	return int(g.rate * (g.warmup + g.measure).Seconds())
}

// workload is one traffic mix. rate > 0 makes it open loop at that
// offered rate (followed by a closed-loop capacity phase); rate == 0
// makes the measured phase itself closed loop.
type workload struct {
	name string
	why  string
	rate float64
	gen  func(genParams) (stream, error)
}

// workloads are the benchmark's traffic mixes. Each stresses a
// different layer, and each optimisation has one workload that
// exercises it and one that bypasses it (see README.md).
var workloads = []workload{
	{
		name: "annotate-cold",
		why:  "every /annotate phrase is distinct, so the full decode stack runs on every request and the cache only pays for Put and eviction",
		rate: annotateRate,
		gen:  genCold,
	},
	{
		name: "annotate-hot",
		why:  "90% of /annotate requests repeat 20 phrases, so nearly every request is a cache hit and HTTP plus JSON set the cost",
		rate: annotateRate,
		gen:  genHot,
	},
	{
		name: "batch-corpus",
		why:  "closed-loop 256-line /annotate/batch mining: the only workload through the worker pool, in-batch dedup and large JSON envelopes",
		gen:  genBatch,
	},
	{
		name: "query-mix",
		why:  "similar/search/nutrition queries over a 5,000-doc sharded snapshot with a corpus reload every 10 s; the annotate stack does no work",
		rate: queryRate,
		gen:  genQuery,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// schedule returns n due times spaced 1/rate apart, starting at zero.
func schedule(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}

// distinctPhrases draws n grammar phrases with pairwise distinct cache
// keys (core.CanonicalKey), alternating the two source-site styles.
func distinctPhrases(seed int64, n int) ([]string, error) {
	gens := []*recipedb.Generator{
		recipedb.NewGenerator(recipedb.SourceAllRecipes, seed),
		recipedb.NewGenerator(recipedb.SourceFoodCom, seed+1),
	}
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for a := 0; len(out) < n; a++ {
		if a > 10*n {
			return nil, fmt.Errorf("grammar yielded only %d distinct phrases of %d", len(out), n)
		}
		p := gens[a%2].IngredientPhrase().Text
		key, err := core.CanonicalKey(p)
		if err != nil || seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, p)
	}
	return out, nil
}

// reloadRequest asks the server to load its corpus snapshot afresh.
var reloadRequest = newRequest(kindReload, "/admin/reload/corpus", nil, nil)

func annotateRequest(phrase string) request {
	body, _ := json.Marshal(struct {
		Phrase string `json:"phrase"`
	}{phrase})
	return newRequest(kindAnnotate, "/annotate", body, []string{phrase})
}

func genCold(g genParams) (stream, error) {
	n := g.openCount()
	phrases, err := distinctPhrases(g.seed, n+capacityPool)
	if err != nil {
		return stream{}, err
	}
	reqs := make([]request, len(phrases))
	for i, p := range phrases {
		reqs[i] = annotateRequest(p)
	}
	return stream{open: reqs[:n], due: schedule(n, g.rate), closed: reqs[n:]}, nil
}

func genHot(g genParams) (stream, error) {
	phrases, err := distinctPhrases(g.seed, hotPhrases+tailPhrases)
	if err != nil {
		return stream{}, err
	}
	pool := make([]request, len(phrases))
	for i, p := range phrases {
		pool[i] = annotateRequest(p)
	}
	rng := rand.New(rand.NewSource(g.seed))
	draw := func(n int) []request {
		out := make([]request, n)
		for i := range out {
			if rng.Float64() < hotShare {
				out[i] = pool[rng.Intn(hotPhrases)]
			} else {
				out[i] = pool[hotPhrases+rng.Intn(tailPhrases)]
			}
		}
		return out
	}
	n := g.openCount()
	return stream{open: draw(n), due: schedule(n, g.rate), closed: draw(capacityPool)}, nil
}

// genBatch cuts the ingredient lines of freshly generated recipes, in
// generation order, into batchCount batches of batchSize lines.
func genBatch(g genParams) (stream, error) {
	gens := []*recipedb.Generator{
		recipedb.NewGenerator(recipedb.SourceAllRecipes, g.seed),
		recipedb.NewGenerator(recipedb.SourceFoodCom, g.seed+1),
	}
	var lines []string
	for r := 0; len(lines) < batchSize*batchCount; r++ {
		for _, ing := range gens[r%2].Recipe().Ingredients {
			lines = append(lines, ing.Text)
		}
	}
	reqs := make([]request, batchCount)
	for b := range reqs {
		batch := lines[b*batchSize : (b+1)*batchSize]
		body, _ := json.Marshal(struct {
			Phrases []string `json:"phrases"`
		}{batch})
		reqs[b] = newRequest(kindBatch, "/annotate/batch", body, batch)
	}
	return stream{closed: reqs}, nil
}

// genQuery draws the 20/40/40 similar/search/nutrition mix over the
// snapshot's documents and schedules a corpus reload every reloadEvery
// of the measured phase. The mix is exact in every run of five
// requests, in seeded order: a similar query costs a hundred times a
// search, so letting the share of similar queries vary by seed would
// make cost per request vary with it.
func genQuery(g genParams) (stream, error) {
	docs, err := g.docs()
	if err != nil {
		return stream{}, err
	}
	if len(docs) == 0 {
		return stream{}, fmt.Errorf("query-mix needs a corpus")
	}
	// A similar query's cost grows with its document's size, so query
	// documents are drawn in turn from the five size quintiles of the
	// corpus: every run's similar queries then cost about the same in
	// total, whatever the seed.
	bySize := make([]int, len(docs))
	for i := range bySize {
		bySize[i] = i
	}
	size := func(i int) int { return len(docs[i].Ingredients) + len(docs[i].Events) }
	sort.SliceStable(bySize, func(a, b int) bool { return size(bySize[a]) < size(bySize[b]) })
	similar := 0
	rng := rand.New(rand.NewSource(g.seed))
	var block []kind
	draw := func() request {
		if len(block) == 0 {
			block = []kind{kindSimilar, kindSearch, kindSearch, kindNutrition, kindNutrition}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		k := block[0]
		block = block[1:]
		switch k {
		case kindSimilar:
			q := similar % 5
			similar++
			lo, hi := q*len(docs)/5, (q+1)*len(docs)/5
			id := bySize[lo+rng.Intn(max(1, hi-lo))]
			body, _ := json.Marshal(map[string]int{"id": id, "k": similarK})
			return newRequest(kindSimilar, "/query/similar", body, nil)
		case kindSearch:
			body, _ := json.Marshal(searchQuery(docs[rng.Intn(len(docs))], rng))
			return newRequest(kindSearch, "/query/search", body, nil)
		default:
			ids := make([]int, 1+rng.Intn(8))
			for i := range ids {
				ids[i] = rng.Intn(len(docs))
			}
			body, _ := json.Marshal(map[string][]int{"ids": ids})
			return newRequest(kindNutrition, "/query/nutrition", body, nil)
		}
	}
	// Similar queries go on one connection and the cheap queries on the
	// other, so a cheap query never waits in a pipeline behind a similar
	// query's tens of milliseconds: what it measures is the server's own
	// interference between them.
	n := g.openCount()
	s := stream{due: schedule(n, g.rate)}
	for i := 0; i < n; i++ {
		r := draw()
		lane := 1
		if r.kind == kindSimilar {
			lane = 0
		}
		s.open = append(s.open, r)
		s.lanes = append(s.lanes, lane)
	}
	for d := g.warmup + reloadEvery/2; d < g.warmup+g.measure; d += reloadEvery {
		s.reloads = append(s.reloads, d)
	}
	s.closed = make([]request, 2000)
	for i := range s.closed {
		s.closed[i] = draw()
	}
	return s, nil
}

// searchQuery asks for recipes of doc's cuisine holding two of its
// ingredients, so every query matches at least doc itself and result
// lists stay small.
func searchQuery(doc *core.RecipeModel, rng *rand.Rand) index.Query {
	var names []string
	for _, ing := range doc.Ingredients {
		if ing.Name != "" {
			names = append(names, ing.Name)
		}
	}
	q := index.Query{Cuisine: doc.Cuisine}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	q.Ingredients = names[:min(2, len(names))]
	return q
}
