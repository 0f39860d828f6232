// The sharded corpus query service (DESIGN §14): serving the *mined*
// structure, not just the miner. A versioned corpus snapshot
// (internal/snapshot) is loaded into N in-memory shards, each owning
// every Nth document together with the derived read state for that
// slice — an inverted index (internal/index), the similarity ranking
// inputs, and precomputed nutrition profiles. Three endpoints fan a
// query out across the shards and fold the shard answers into one
// deterministic result:
//
//	POST /query/similar   {"id": 12, "k": 5}     → top-K similar recipes
//	POST /query/search    index.Query JSON       → matching recipes
//	POST /query/nutrition {"ids": [3, 7]}        → per-recipe profiles
//	POST /admin/reload/corpus                    → snapshot hot-swap
//
// Failure is the design driver. Every per-shard computation runs with
// panic containment and the query.shard fault point at its entry; a
// shard that panics, errors, or overruns the per-shard deadline budget
// is marked unhealthy and the query degrades to PARTIAL RESULTS — the
// response carries degraded:true and shards_served/shards_total, never
// a 5xx — mirroring the cache layer's shed-to-hot-set philosophy
// (§13): answer what can be answered, say exactly what was skipped.
// The surviving shards' results are byte-identical to a healthy
// single-shard server restricted to the surviving documents, because
// shard answers are merged under a deterministic total order (score
// descending then doc id for rankings, doc id for searches).
//
// The corpus is generation-pinned like the serving pipeline: handlers
// resolve the {snapshot, shards} state once per request from one
// atomic pointer, so a snapshot hot-swap mid-query never tears a
// result — in-flight queries finish on the snapshot they started on,
// and the next request sees the new version with fresh, healthy
// shards.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"slices"
	"sort"
	"sync/atomic"

	"recipemodel/internal/core"
	"recipemodel/internal/faults"
	"recipemodel/internal/index"
	"recipemodel/internal/nutrition"
	"recipemodel/internal/parallel"
	"recipemodel/internal/similarity"
	"recipemodel/internal/snapshot"
)

// FaultQueryShard fires at the entry of every per-shard query
// execution, indexed by shard id — so a drill can kill, panic, or
// stall exactly shard k of N regardless of scheduling. An injected
// error or panic marks the shard unhealthy and degrades the query to
// partial results over the survivors.
//
//recipelint:allow faultpoint query.* is the query subsystem's namespace within server; drills address shards, not the package
const FaultQueryShard = "query.shard"

var _ = faults.MustRegister(FaultQueryShard)

// defaultSimilarK is the /query/similar result count when the request
// does not name one.
const defaultSimilarK = 10

// corpusShard owns one interleaved slice of the snapshot: documents
// whose global id ≡ id (mod stride), in ascending order, plus every
// derived read structure for that slice. Shards are immutable after
// build except for the health flag; a reload replaces them wholesale,
// though a reload over the same models shares models, ix and profiles
// with the shard it replaces.
type corpusShard struct {
	id     int
	stride int
	models []*core.RecipeModel
	ix     *index.Index
	// profiles[i] is the precomputed nutrition estimate of models[i].
	profiles []nutrition.RecipeProfile
	// healthy flips false the first time the shard fails (panic,
	// injected fault, or deadline overrun); an unhealthy shard is
	// skipped — not retried — until a snapshot reload rebuilds it.
	healthy  atomic.Bool
	failures atomic.Int64
}

// global maps a shard-local document position to its corpus-wide id.
func (sh *corpusShard) global(local int) int { return local*sh.stride + sh.id }

// corpusState is the generation-pinned serving corpus: one snapshot
// partitioned into shards, with the corpus-wide IDF weights shared by
// all of them (per-shard IDF would make scores depend on the shard
// count, breaking the serial-oracle equivalence).
type corpusState struct {
	version string
	snap    *snapshot.Snapshot
	shards  []*corpusShard
	weights *similarity.CorpusWeights
}

// healthyShards counts shards still marked healthy.
func (cs *corpusState) healthyShards() int {
	n := 0
	for _, sh := range cs.shards {
		if sh.healthy.Load() {
			n++
		}
	}
	return n
}

// newCorpusState partitions a snapshot into nshards round-robin shards
// and builds each shard's read state. The shard count is clamped to
// [1, docs] so no shard is empty. The corpus weights and each shard
// are separate tasks on a pool bounded by GOMAXPROCS; each task writes
// only its own slot, so the state is the serial build's.
func newCorpusState(snap *snapshot.Snapshot, nshards int) *corpusState {
	n := nshards
	if n < 1 {
		n = 1
	}
	if len(snap.Models) > 0 && n > len(snap.Models) {
		n = len(snap.Models)
	}
	cs := &corpusState{
		version: snap.Version,
		snap:    snap,
		shards:  make([]*corpusShard, n),
	}
	est := nutrition.NewEstimator()
	// Task 0 learns the weights; task i+1 builds shard i.
	runTasks(n+1, func(task int) {
		if task == 0 {
			cs.weights = similarity.LearnWeights(snap.Models)
			return
		}
		i := task - 1
		var models []*core.RecipeModel
		for g := i; g < len(snap.Models); g += n {
			models = append(models, snap.Models[g])
		}
		sh := &corpusShard{
			id:       i,
			stride:   n,
			models:   models,
			ix:       index.New(models),
			profiles: est.EstimateAll(models),
		}
		sh.healthy.Store(true)
		cs.shards[i] = sh
	})
	return cs
}

// runTasks runs fn(0) … fn(n-1) on parallel.MapOrdered, bounded by
// GOMAXPROCS. A panic is recovered inside its task, and once every task
// has returned the lowest-index one is raised again on the calling
// goroutine, as an error carrying the task, the panic value and the
// stack of the frame that panicked. So a build panic during
// /admin/reload/corpus unwinds the handler: the recover middleware
// answers 500 and logs the faulting frame, corpusMu is released and the
// old corpus keeps serving. Unrecovered in a worker, it would end the
// process.
func runTasks(n int, fn func(task int)) {
	panics := parallel.MapOrdered(0, make([]struct{}, n), func(task int, _ struct{}) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("corpus build task %d panicked: %v\n%s", task, p, debug.Stack())
			}
		}()
		fn(task)
		return nil
	})
	for _, err := range panics {
		if err != nil {
			panic(err)
		}
	}
}

// rebind returns a new generation serving snap, whose models must be
// cs's models in order. It shares cs's corpus weights and each shard's
// models, index and nutrition profiles, which are functions of exactly
// those models, and gives every shard a fresh health flag and failure
// count, as a rebuild would.
func (cs *corpusState) rebind(snap *snapshot.Snapshot) *corpusState {
	next := &corpusState{version: snap.Version, snap: snap, weights: cs.weights}
	for _, sh := range cs.shards {
		fresh := &corpusShard{id: sh.id, stride: sh.stride, models: sh.models, ix: sh.ix, profiles: sh.profiles}
		fresh.healthy.Store(true)
		next.shards = append(next.shards, fresh)
	}
	return next
}

// corpusState resolves the serving corpus once; nil when no snapshot
// is loaded. Handlers hold the same state for their whole request, so
// a hot-swap mid-query never mixes two snapshots in one answer.
func (s *Server) loadCorpus() *corpusState {
	v := s.corpus.Load()
	if v == nil {
		return nil
	}
	return v.(*corpusState)
}

// CorpusVersion reports the serving snapshot version ("" when no
// corpus is loaded).
func (s *Server) CorpusVersion() string {
	if cs := s.loadCorpus(); cs != nil {
		return cs.version
	}
	return ""
}

// CorpusReloadEnabled reports whether a corpus loader is configured —
// cmd/recipeserver's SIGHUP handler uses it to skip the corpus reload
// (and its log line) on servers without a snapshot store.
func (s *Server) CorpusReloadEnabled() bool { return s.cfg.CorpusLoader != nil }

// ReloadCorpus loads a snapshot through Config.CorpusLoader and
// atomically swaps it into the serving position with fresh, healthy
// shards. On any failure — including a torn or corrupt snapshot the
// loader rejects — the previous corpus keeps serving and the error
// describes the rejection. Reloads are serialized.
func (s *Server) ReloadCorpus() (version string, err error) {
	cs, err := s.reloadCorpus()
	if err != nil {
		return "", err
	}
	return cs.version, nil
}

// reloadCorpus is ReloadCorpus returning the generation it installed.
// When the loaded models are pointer-identical, in order, to the
// serving generation's, the new generation shares that generation's
// derived read state (rebind); otherwise newCorpusState rebuilds it.
func (s *Server) reloadCorpus() (*corpusState, error) {
	if s.cfg.CorpusLoader == nil {
		return nil, errors.New("no corpus loader configured")
	}
	s.corpusMu.Lock()
	defer s.corpusMu.Unlock()
	//recipelint:allow locksafe corpusMu exists only to serialize reloads — holding it across the load is the point, and no query path ever blocks on it (reads go through s.corpus.Load)
	snap, err := s.cfg.CorpusLoader()
	if err != nil {
		s.corpusRejected.Add(1)
		return nil, fmt.Errorf("load snapshot: %w", err)
	}
	if snap == nil || len(snap.Models) == 0 {
		s.corpusRejected.Add(1)
		return nil, errors.New("loader returned an empty snapshot")
	}
	var cs *corpusState
	if old := s.loadCorpus(); old != nil && slices.Equal(old.snap.Models, snap.Models) {
		cs = old.rebind(snap)
	} else {
		cs = newCorpusState(snap, s.cfg.CorpusShards)
	}
	s.corpus.Store(cs)
	s.corpusReloads.Add(1)
	return cs, nil
}

func (s *Server) handleReloadCorpus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.cfg.CorpusLoader == nil {
		httpError(w, http.StatusServiceUnavailable, "corpus reload not configured (no snapshot store)")
		return
	}
	// The body describes the generation this reload installed, even if
	// another reload (a SIGHUP) has swapped in a newer one since.
	cs, err := s.reloadCorpus()
	if err != nil {
		writeJSONStatus(w, http.StatusUnprocessableEntity, map[string]string{
			"error":   "corpus reload rejected: " + err.Error(),
			"serving": s.CorpusVersion(),
		})
		return
	}
	writeJSON(w, map[string]any{
		"status":  "ok",
		"version": cs.version,
		"docs":    len(cs.snap.Models),
		"shards":  len(cs.shards),
	})
}

// queryEnvelope wraps every query response with the degradation
// contract: which snapshot answered, how many shards contributed, and
// whether anything was skipped. degraded:true with shards_served <
// shards_total is the partial-result signal — the HTTP status stays
// 200, because a partial answer over the surviving shards is an
// answer, not a failure.
type queryEnvelope struct {
	Snapshot     string `json:"snapshot"`
	ShardsTotal  int    `json:"shards_total"`
	ShardsServed int    `json:"shards_served"`
	Degraded     bool   `json:"degraded"`
	FailedShards []int  `json:"failed_shards,omitempty"`
	Results      any    `json:"results"`
}

// shardOutcome is one shard's fan-out answer.
type shardOutcome struct {
	id  int
	out any
	err error
}

// runShard executes fn on one shard with panic containment and the
// query.shard fault point planted at entry. A panic in shard code —
// plausibly a corrupt snapshot slice — is an error for this shard
// alone, never process death and never a lost query.
func runShard(sh *corpusShard, fn func(*corpusShard) any) (out any, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("shard %d panicked: %v", sh.id, rec)
		}
	}()
	if err := faults.InjectIndexed(FaultQueryShard, sh.id); err != nil {
		return nil, fmt.Errorf("shard %d: %w", sh.id, err)
	}
	return fn(sh), nil
}

// queryShards fans fn out over the target shards and collects the
// answers, bounded by the request context and, when configured, the
// per-shard deadline budget. Shards already marked unhealthy are
// skipped without spawning work. A shard that fails or overruns is
// marked unhealthy and listed in failed; the caller degrades to the
// survivors. served maps shard id → fn's answer.
func (s *Server) queryShards(ctx context.Context, targets []*corpusShard, fn func(*corpusShard) any) (served map[int]any, failed []int) {
	served = make(map[int]any, len(targets))
	qctx := ctx
	if s.cfg.QueryShardBudget > 0 {
		var cancel context.CancelFunc
		qctx, cancel = context.WithTimeout(ctx, s.cfg.QueryShardBudget)
		defer cancel()
	}
	ch := make(chan shardOutcome, len(targets))
	pending := make(map[int]*corpusShard, len(targets))
	for _, sh := range targets {
		if !sh.healthy.Load() {
			failed = append(failed, sh.id)
			continue
		}
		pending[sh.id] = sh
		go func(sh *corpusShard) {
			out, err := runShard(sh, fn)
			// The channel is buffered to the full fan-out, so a shard
			// finishing after the collector gave up parks its answer
			// here and the goroutine exits — no leak, no lost recover.
			ch <- shardOutcome{id: sh.id, out: out, err: err}
		}(sh)
	}
	for len(pending) > 0 {
		select {
		case res := <-ch:
			sh, ok := pending[res.id]
			if !ok {
				continue
			}
			delete(pending, res.id)
			if res.err != nil {
				s.failShard(sh, res.err)
				failed = append(failed, res.id)
				continue
			}
			served[res.id] = res.out
		case <-qctx.Done():
			// Budget exhausted (or the client went away). Every shard
			// still pending is unserved; a budget overrun with a live
			// client marks the slow shards unhealthy so the next query
			// does not wait on them again — a reload rebuilds them.
			slow := ctx.Err() == nil
			for id, sh := range pending {
				if slow {
					s.failShard(sh, fmt.Errorf("shard %d: deadline budget %v exceeded", id, s.cfg.QueryShardBudget))
				}
				failed = append(failed, id)
			}
			pending = nil
		}
	}
	sort.Ints(failed)
	return served, failed
}

// failShard marks a shard unhealthy (first failure wins) and logs the
// cause.
func (s *Server) failShard(sh *corpusShard, err error) {
	sh.failures.Add(1)
	// Shard panics and budget overruns feed the CRF-tier breaker
	// (DESIGN §15): corpus shards share the process with the decode
	// path, and a shard dying is evidence of the same poisoned load.
	s.brk.Report(false)
	if sh.healthy.CompareAndSwap(true, false) {
		s.logf("corpus shard %d marked unhealthy: %v", sh.id, err)
	}
}

// writeQuery emits the envelope, counting a degraded (partial) serve.
func (s *Server) writeQuery(w http.ResponseWriter, cs *corpusState, failed []int, results any) {
	degraded := len(failed) > 0
	if degraded {
		s.degradedQueries.Add(1)
	}
	writeJSON(w, queryEnvelope{
		Snapshot:     cs.version,
		ShardsTotal:  len(cs.shards),
		ShardsServed: len(cs.shards) - len(failed),
		Degraded:     degraded,
		FailedShards: failed,
		Results:      results,
	})
}

// corpusForQuery resolves the serving corpus or answers 503 — the only
// non-degradable query failure: there is no corpus at all.
func (s *Server) corpusForQuery(w http.ResponseWriter) *corpusState {
	cs := s.loadCorpus()
	if cs == nil {
		httpError(w, http.StatusServiceUnavailable, "no corpus snapshot loaded")
	}
	return cs
}

// similarRequest is the /query/similar payload: the corpus doc id to
// rank against and how many neighbors to return.
type similarRequest struct {
	ID *int `json:"id"`
	K  int  `json:"k"`
}

// similarHit is one /query/similar result row.
type similarHit struct {
	ID    int     `json:"id"`
	Title string  `json:"title"`
	Score float64 `json:"score"`
}

func (s *Server) handleQuerySimilar(w http.ResponseWriter, r *http.Request) {
	var req similarRequest
	if !decode(w, r, &req) {
		return
	}
	cs := s.corpusForQuery(w)
	if cs == nil {
		return
	}
	if req.ID == nil {
		httpError(w, http.StatusBadRequest, "id is required")
		return
	}
	id := *req.ID
	if id < 0 || id >= len(cs.snap.Models) {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("id %d out of range (corpus holds %d docs)", id, len(cs.snap.Models)))
		return
	}
	k := req.K
	if k <= 0 {
		k = defaultSimilarK
	}
	release, ok := s.admit(w, 1)
	if !ok {
		return
	}
	defer release()
	// The query model is resolved from the snapshot itself, not from a
	// shard, so ranking proceeds even when the query doc's own shard is
	// down — its slice just cannot appear among the neighbors.
	query := cs.snap.Models[id]
	served, failed := s.queryShards(r.Context(), cs.shards, func(sh *corpusShard) any {
		scored := make([]similarity.Ranked, 0, len(sh.models))
		for local, m := range sh.models {
			g := sh.global(local)
			if g == id {
				continue // a recipe is trivially similar to itself
			}
			scored = append(scored, similarity.Ranked{
				Index: g,
				Score: similarity.WeightedScore(query, m, cs.weights, similarity.DefaultWeights),
			})
		}
		return similarity.TopK(scored, k)
	})
	lists := make([][]similarity.Ranked, 0, len(served))
	for _, sh := range cs.shards {
		if out, ok := served[sh.id]; ok {
			lists = append(lists, out.([]similarity.Ranked))
		}
	}
	merged := similarity.MergeTopK(lists, k)
	hits := make([]similarHit, 0, len(merged))
	for _, rk := range merged {
		hits = append(hits, similarHit{ID: rk.Index, Title: cs.snap.Models[rk.Index].Title, Score: rk.Score})
	}
	s.writeQuery(w, cs, failed, hits)
}

func (s *Server) handleQuerySearch(w http.ResponseWriter, r *http.Request) {
	var q index.Query
	if !decode(w, r, &q) {
		return
	}
	cs := s.corpusForQuery(w)
	if cs == nil {
		return
	}
	release, ok := s.admit(w, 1)
	if !ok {
		return
	}
	defer release()
	served, failed := s.queryShards(r.Context(), cs.shards, func(sh *corpusShard) any {
		ids := sh.ix.Search(q)
		hits := make([]searchHit, 0, len(ids))
		for _, local := range ids {
			m := sh.models[local]
			hits = append(hits, searchHit{ID: sh.global(local), Title: m.Title, Cuisine: m.Cuisine})
		}
		return hits
	})
	var all []searchHit
	for _, sh := range cs.shards {
		if out, ok := served[sh.id]; ok {
			all = append(all, out.([]searchHit)...)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	if all == nil {
		all = []searchHit{}
	}
	s.writeQuery(w, cs, failed, all)
}

// nutritionRequest is the /query/nutrition payload: one id or several.
type nutritionRequest struct {
	ID  *int  `json:"id"`
	IDs []int `json:"ids"`
}

// nutritionItem is one /query/nutrition result row. Rows for ids owned
// by a failed shard are absent from a degraded response — partial
// results, not invented zeros.
type nutritionItem struct {
	ID        int                     `json:"id"`
	Title     string                  `json:"title"`
	Nutrition nutrition.RecipeProfile `json:"nutrition"`
}

func (s *Server) handleQueryNutrition(w http.ResponseWriter, r *http.Request) {
	var req nutritionRequest
	if !decode(w, r, &req) {
		return
	}
	cs := s.corpusForQuery(w)
	if cs == nil {
		return
	}
	ids := append([]int(nil), req.IDs...)
	if req.ID != nil {
		ids = append(ids, *req.ID)
	}
	if len(ids) == 0 {
		httpError(w, http.StatusBadRequest, "id or ids required")
		return
	}
	sort.Ints(ids)
	uniq := ids[:0]
	for i, id := range ids {
		if id < 0 || id >= len(cs.snap.Models) {
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("id %d out of range (corpus holds %d docs)", id, len(cs.snap.Models)))
			return
		}
		if i > 0 && id == ids[i-1] {
			continue
		}
		uniq = append(uniq, id)
	}
	release, ok := s.admit(w, 1)
	if !ok {
		return
	}
	defer release()
	// Only the shards owning a requested id do any work.
	byShard := make(map[int][]int)
	for _, id := range uniq {
		owner := id % len(cs.shards)
		byShard[owner] = append(byShard[owner], id)
	}
	targets := make([]*corpusShard, 0, len(byShard))
	for _, sh := range cs.shards {
		if _, ok := byShard[sh.id]; ok {
			targets = append(targets, sh)
		}
	}
	served, failed := s.queryShards(r.Context(), targets, func(sh *corpusShard) any {
		items := make([]nutritionItem, 0, len(byShard[sh.id]))
		for _, id := range byShard[sh.id] {
			local := id / sh.stride
			items = append(items, nutritionItem{
				ID:        id,
				Title:     sh.models[local].Title,
				Nutrition: sh.profiles[local],
			})
		}
		return items
	})
	items := make([]nutritionItem, 0, len(uniq))
	for _, sh := range cs.shards {
		if out, ok := served[sh.id]; ok {
			items = append(items, out.([]nutritionItem)...)
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
	s.writeQuery(w, cs, failed, items)
}
