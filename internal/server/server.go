// Package server exposes the recipe-modeling pipeline as a JSON HTTP
// API — the deployment form of the paper's own artifact (RecipeDB is a
// web resource [1]). Endpoints:
//
//	POST /annotate            {"phrase": "..."}             → IngredientRecord (422 on poison input)
//	POST /annotate/batch      {"phrases": ["...", ...]}     → {"results":[...],"ok":n,"rejected":m[,"degraded":true,"tier":"rules"]},
//	                                                           200 all ok / 207 mixed / 422 all rejected (worker-pool fan-out)
//	POST /model               {"title","cuisine","ingredients":[],"instructions":""} → RecipeModel + nutrition
//	POST /search              {"ingredients":[],"processes":[],...} → matching recipe titles
//	POST /query/similar       {"id": 12, "k": 5}            → top-K similar corpus recipes (query.go)
//	POST /query/search        index.Query JSON              → matching corpus recipes
//	POST /query/nutrition     {"ids": [3, 7]}               → per-recipe nutrition profiles
//	POST /admin/reload                                      → validated hot model reload
//	POST /admin/reload/corpus                               → validated corpus snapshot hot-swap
//	GET  /healthz                                           → 200 ok (liveness)
//	GET  /readyz                                            → 200 ready / 503 starting (readiness + reload state)
//
// The server owns a trained pipeline and, optionally, an indexed
// corpus for /search, and composes the resilience layer in front of
// every handler: panic recovery (a handler bug is a 500, never process
// death), a per-request deadline threaded through the batch pipeline
// APIs (a dead client stops burning CPU), and weighted admission
// control (a batch counts its distinct uncached phrases) that sheds
// excess load with 429 + Retry-After instead of queueing without
// bound.
//
// The serving pipeline is hot-swappable: /admin/reload (or SIGHUP in
// cmd/recipeserver) loads a candidate bundle off to the side through
// Config.Loader, annotates a pinned golden phrase set with it (the
// canary self-check), and only on a clean pass atomically swaps it
// into the serving position. A load error or canary miss rejects the
// candidate and the previous model keeps serving — in-flight requests
// are never dropped either way, because each request resolves the
// pipeline pointer once at admission.
//
// Heavy-tail traffic shape (DESIGN §13): real ingredient traffic is
// massively duplicated, so both annotate endpoints run one ladder that
// coalesces concurrent misses for one phrase into a single decode
// (internal/flight), decodes each distinct phrase of a batch once, and
// — with Config.CacheEntries > 0 — memoizes successful decodes in a
// sharded LRU keyed on core.CanonicalKey(phrase). With CacheEntries 0
// the same code runs over a nil cache that always misses. The cache is
// generation-pinned: each request resolves {pipeline, version,
// generation} as one atomic unit, entries carry the generation that
// produced them, and a hot reload bumps the generation — so a cached
// record is served only to requests resolving the very pipeline that
// computed it, and a reload invalidates without a stop-the-world
// flush. Under overload the cache keeps the hot set alive: hits cost
// no admission weight and are served even when the limiter is
// saturated (counted as degraded-mode serves), while misses shed with
// 429 + Retry-After.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"recipemodel/internal/breaker"
	"recipemodel/internal/cache"
	"recipemodel/internal/core"
	"recipemodel/internal/faults"
	"recipemodel/internal/flight"
	"recipemodel/internal/index"
	"recipemodel/internal/nutrition"
	"recipemodel/internal/quarantine"
	"recipemodel/internal/resilience"
	"recipemodel/internal/snapshot"
)

// FaultServe fires at the top of every routed request (before the
// handler body); arming it with a panic proves containment through the
// real middleware stack, with latency it holds requests in flight for
// shedding tests (see internal/faults).
const FaultServe = "server.serve"

var _ = faults.MustRegister(FaultServe)

// Pipeline is the subset of the pipeline API the server needs;
// satisfied by the public recipemodel.Pipeline via a thin adapter or
// by core-level components directly. The batch and model calls take
// the request context so a client disconnect or deadline stops the
// worker-pool computation instead of leaking it.
type Pipeline interface {
	// AnnotateIngredientChecked is the containment-aware single-phrase
	// form behind /annotate and the reload canary: a poison phrase
	// comes back as a typed quarantine error instead of an empty
	// record, so the handler can answer 422 with a machine-readable
	// code.
	AnnotateIngredientChecked(phrase string) (core.IngredientRecord, error)
	// AnnotateIngredientsPartial is the batch form behind
	// /annotate/batch: implementations fan out over a worker pool and
	// honor ctx cancellation, and one poison phrase costs one
	// rejection, not the batch. Slot i of the records is meaningful iff
	// no rejection carries index i.
	AnnotateIngredientsPartial(ctx context.Context, phrases []string) ([]core.IngredientRecord, []quarantine.Rejection, error)
	ModelRecipeContext(ctx context.Context, title, cuisine string, ingredientLines []string, instructions string) (*core.RecipeModel, error)
}

// Config tunes the resilience layer; the zero value disables all
// limits (useful for tests that target handler logic alone).
type Config struct {
	// MaxInFlight caps admitted work units across all requests: a
	// single annotate/model/search weighs 1, a batch weighs its
	// distinct uncached phrases. 0 means unlimited.
	MaxInFlight int
	// RequestTimeout bounds each request's context; handlers observe
	// it through ctx and answer 503 when mining overruns. 0 disables.
	RequestTimeout time.Duration
	// RetryAfter is the hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
	// Logger receives panic stacks; nil uses log.Default().
	Logger *log.Logger
	// Loader loads a candidate pipeline (plus its version label) for
	// hot reload. nil disables /admin/reload with a 503.
	Loader func() (Pipeline, string, error)
	// Canary overrides the golden phrase set a reload candidate must
	// annotate correctly before it may serve; nil uses core.CanarySet.
	Canary []core.CanaryCase
	// ModelVersion labels the initially served model in /readyz.
	ModelVersion string
	// CacheEntries bounds the annotation cache (in entries); 0 turns
	// the memo off. Request coalescing and in-batch dedup do not depend
	// on it: a nil cache always misses and never stores.
	CacheEntries int
	// CorpusSnapshot is the initial mined corpus served by the /query
	// endpoints; nil disables them with a 503.
	CorpusSnapshot *snapshot.Snapshot
	// CorpusShards is the number of in-memory shards the corpus is
	// partitioned into (clamped to [1, docs]).
	CorpusShards int
	// CorpusLoader loads a candidate snapshot for corpus hot reload;
	// nil disables /admin/reload/corpus with a 503.
	CorpusLoader func() (*snapshot.Snapshot, error)
	// QueryShardBudget bounds each query's per-shard fan-out: a shard
	// that has not answered within the budget is skipped (the query
	// degrades to partial results) and marked unhealthy. 0 leaves only
	// the request deadline in force.
	QueryShardBudget time.Duration
	// Rules is the deterministic fallback annotation tier (DESIGN
	// §15). Setting it arms the full degradation ladder — CRF → cache
	// hot-set → rules tier → shed — and the CRF-tier circuit breaker.
	// nil disables both: CRF-tier failures then reject 422 or shed
	// instead of degrading.
	Rules RulesAnnotator
	// RulesRoute enables the healthy-mode short circuit: phrases the
	// rules tier annotates at >= RulesThreshold confidence are served
	// from it directly while the breaker is closed. Off by default —
	// routed responses are not byte-identical to CRF decodes.
	RulesRoute bool
	// RulesThreshold is the minimum rules-tier confidence for routing
	// and agreement audits (default 1: only fully-covered phrases).
	RulesThreshold float64
	// Breaker tunes the CRF-tier circuit breaker; zero-value fields
	// take the breaker package defaults. Ignored when Rules is nil.
	Breaker breaker.Config
	// AgreementSample runs the cross-tier agreement audit on every
	// Nth successful CRF decode (0 disables auditing).
	AgreementSample int
}

// pipeState pairs the serving pipeline with its version label and
// cache generation; it is swapped as a unit so /readyz never reports
// a version the handlers are not actually serving, and so a cached
// record can never be served to a request resolving a different
// pipeline than the one that computed it (the generation a request
// reads is, by construction, the generation of the pipeline it
// decodes with).
type pipeState struct {
	pipe    Pipeline
	version string
	gen     uint64
}

// reloadInfo is the observable state of the reload machine, published
// on /readyz.
type reloadInfo struct {
	// InProgress is true while a candidate is loading or in canary.
	InProgress bool `json:"inProgress"`
	// Last is "" before any reload, then "ok" or "rejected".
	Last string `json:"last,omitempty"`
	// Detail carries the rejection reason or the adopted version.
	Detail string `json:"detail,omitempty"`
}

// Server is the HTTP handler set.
type Server struct {
	pipe      atomic.Value // pipeState
	estimator *nutrition.Estimator
	ix        *index.Index
	handler   http.Handler
	limiter   *resilience.Limiter
	cfg       Config
	ready     atomic.Bool
	// reloadMu serializes reloads; handlers never take it, so a slow
	// candidate load cannot stall serving.
	reloadMu    sync.Mutex
	reloadState atomic.Value // reloadInfo
	reloads     atomic.Int64
	rejected    atomic.Int64
	// quarantined tallies every record-level rejection the annotate
	// endpoints produced over the server's lifetime; published on
	// /readyz so operators can alert on poison-input rates by code.
	quarantined quarantine.Counters
	// cache memoizes successful ingredient decodes keyed on canonical
	// phrase bytes, each as one packed cachedRecord (cached.go); nil
	// when Config.CacheEntries is 0, which every lookup reads as a miss
	// and every store ignores.
	cache *cache.Cache[cachedRecord]
	// flights coalesces concurrent uncached decodes of one phrase so a
	// thundering herd costs a single decode. Keys carry the generation,
	// so a reload mid-herd starts fresh flights for the new model.
	flights flight.Group[core.IngredientRecord]
	// shedTotal counts every 429 this server answered; degradedHits
	// counts cache hits served while the limiter was saturated — the
	// observable signature of degraded mode (still answering the hot
	// set while shedding cold misses).
	shedTotal    atomic.Int64
	degradedHits atomic.Int64
	// corpus holds the generation-pinned *corpusState serving the
	// /query endpoints; swapped atomically by ReloadCorpus, resolved
	// once per request (see query.go). corpusMu serializes reloads;
	// query handlers never take it.
	corpus          atomic.Value
	corpusMu        sync.Mutex
	corpusReloads   atomic.Int64
	corpusRejected  atomic.Int64
	degradedQueries atomic.Int64
	// brk is the CRF-tier circuit breaker; nil unless Config.Rules is
	// set (a nil breaker always admits — see internal/breaker), so
	// the no-tier configuration cannot trip.
	brk *breaker.Breaker
	// Tier traffic counters (DESIGN §15), published on /readyz.
	crfServed     atomic.Int64
	rulesRouted   atomic.Int64
	rulesDegraded atomic.Int64
	// Cross-tier agreement audit state: auditTick drives the
	// deterministic every-Nth sampling; sampled/disagree are the
	// published results.
	auditTick     atomic.Uint64
	auditSampled  atomic.Int64
	auditDisagree atomic.Int64
}

// New builds a server around a trained pipeline with no limits; ix may
// be nil, which disables /search with a 503. Production callers want
// NewWithConfig.
func New(pipe Pipeline, ix *index.Index) *Server {
	return NewWithConfig(pipe, ix, Config{})
}

// NewWithConfig builds a server with the full resilience layer wired:
// mux → recovery → deadline → handlers (admission checks run inside
// handlers, after decode, so batch weights are known).
func NewWithConfig(pipe Pipeline, ix *index.Index, cfg Config) *Server {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.RulesThreshold <= 0 {
		cfg.RulesThreshold = 1
	}
	s := &Server{
		estimator: nutrition.NewEstimator(),
		ix:        ix,
		limiter:   resilience.NewLimiter(cfg.MaxInFlight),
		cfg:       cfg,
		cache:     cache.New[cachedRecord](cfg.CacheEntries),
	}
	if cfg.Rules != nil {
		s.brk = breaker.New(cfg.Breaker)
	}
	s.pipe.Store(pipeState{pipe: pipe, version: cfg.ModelVersion, gen: 1})
	s.reloadState.Store(reloadInfo{})
	if cfg.CorpusSnapshot != nil && len(cfg.CorpusSnapshot.Models) > 0 {
		s.corpus.Store(newCorpusState(cfg.CorpusSnapshot, cfg.CorpusShards))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	mux.HandleFunc("/annotate", s.handleAnnotate)
	mux.HandleFunc("/annotate/batch", s.handleAnnotateBatch)
	mux.HandleFunc("/model", s.handleModel)
	mux.HandleFunc("/search", s.handleSearch)
	mux.HandleFunc("/query/similar", s.handleQuerySimilar)
	mux.HandleFunc("/query/search", s.handleQuerySearch)
	mux.HandleFunc("/query/nutrition", s.handleQueryNutrition)
	mux.HandleFunc("/admin/reload", s.handleReload)
	mux.HandleFunc("/admin/reload/corpus", s.handleReloadCorpus)
	s.handler = resilience.Recover(cfg.Logger,
		resilience.Deadline(cfg.RequestTimeout, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if err := faults.Inject(FaultServe); err != nil {
				httpError(w, http.StatusInternalServerError, "injected fault: "+err.Error())
				return
			}
			mux.ServeHTTP(w, r)
		})))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// SetReady flips the /readyz answer; cmd/recipeserver flips it true
// once training and corpus indexing complete, and back to false while
// draining so load balancers stop routing new work here.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports the current readiness state.
func (s *Server) Ready() bool { return s.ready.Load() }

// state resolves the serving {pipeline, version, generation} triple
// once; a handler holds the same state for its whole request even if
// a reload swaps the pointer mid-flight, which is what makes the
// cache's generation pinning airtight: a record is cached and served
// under the generation of the pipeline that computed it.
func (s *Server) state() pipeState { return s.pipe.Load().(pipeState) }

// ModelVersion reports the version label of the serving pipeline.
func (s *Server) ModelVersion() string { return s.state().version }

// Generation reports the cache generation of the serving pipeline;
// it starts at 1 and increments on every adopted reload.
func (s *Server) Generation() uint64 { return s.state().gen }

// canarySet returns the golden phrases a reload candidate must pass.
func (s *Server) canarySet() []core.CanaryCase {
	if s.cfg.Canary != nil {
		return s.cfg.Canary
	}
	return core.CanarySet()
}

// runCanary annotates the golden set with the candidate. A panic in
// the candidate (a plausibly corrupt model) is caught and reported as
// a rejection, never allowed to take the server down.
func runCanary(cand Pipeline, cases []core.CanaryCase) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("candidate panicked during canary: %v", rec)
		}
	}()
	for _, c := range cases {
		rec, err := cand.AnnotateIngredientChecked(c.Phrase)
		if err != nil {
			return fmt.Errorf("canary %q: %w", c.Phrase, err)
		}
		if rec.Name != c.WantName {
			return fmt.Errorf("canary %q: candidate extracted name %q, want %q", c.Phrase, rec.Name, c.WantName)
		}
	}
	return nil
}

// Reload runs the validated hot-reload sequence: load a candidate via
// Config.Loader, canary-check it, and atomically swap it into the
// serving position. On any failure the old pipeline keeps serving and
// the error describes the rejection. Reloads are serialized; a second
// caller waits for the first to finish.
func (s *Server) Reload() (version string, err error) {
	if s.cfg.Loader == nil {
		return "", errors.New("no loader configured")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	s.reloadState.Store(reloadInfo{InProgress: true, Last: s.lastReload().Last})
	version, err = s.reloadLocked()
	if err != nil {
		s.rejected.Add(1)
		s.reloadState.Store(reloadInfo{Last: "rejected", Detail: err.Error()})
		// A canary-rejected (or unloadable) candidate is a CRF-tier
		// health signal: feed the breaker window out of band.
		s.brk.Report(false)
		return version, err
	}
	s.reloads.Add(1)
	s.reloadState.Store(reloadInfo{Last: "ok", Detail: version})
	return version, nil
}

func (s *Server) lastReload() reloadInfo { return s.reloadState.Load().(reloadInfo) }

func (s *Server) reloadLocked() (string, error) {
	cand, version, err := s.cfg.Loader()
	if err != nil {
		return version, fmt.Errorf("load candidate: %w", err)
	}
	if cand == nil {
		return version, errors.New("loader returned no pipeline")
	}
	if err := runCanary(cand, s.canarySet()); err != nil {
		return version, err
	}
	// Bumping the generation with the pipeline swap is the whole cache
	// invalidation: entries decoded by the old model carry the old
	// generation and no request resolving the new state can read them
	// (they age out lazily — no stop-the-world flush). A decode still
	// in flight under the old state caches its result under the old
	// generation, where it is equally unreachable.
	old := s.state()
	s.pipe.Store(pipeState{pipe: cand, version: version, gen: old.gen + 1})
	return version, nil
}

// reloadResponse is the /admin/reload success payload.
type reloadResponse struct {
	Status  string `json:"status"`
	Version string `json:"version"`
	Canary  int    `json:"canaryPhrases"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.cfg.Loader == nil {
		httpError(w, http.StatusServiceUnavailable, "hot reload not configured (no model store)")
		return
	}
	version, err := s.Reload()
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		_ = json.NewEncoder(w).Encode(map[string]string{
			"error":    "reload rejected: " + err.Error(),
			"rejected": version,
			"serving":  s.ModelVersion(),
		})
		return
	}
	writeJSON(w, reloadResponse{Status: "ok", Version: version, Canary: len(s.canarySet())})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// readyResponse is the /readyz payload: readiness plus the model
// version being served and the reload state machine's position, so an
// operator (or a deploy script polling after /admin/reload) can see
// whether the new model actually took.
type readyResponse struct {
	Ready           bool       `json:"ready"`
	Model           string     `json:"model,omitempty"`
	Reloads         int64      `json:"reloads"`
	RejectedReloads int64      `json:"rejectedReloads"`
	Reload          reloadInfo `json:"reload"`
	// Quarantined counts record-level rejections served by the annotate
	// endpoints since startup, cumulative and broken down by taxonomy
	// code.
	Quarantined       int64                     `json:"quarantined"`
	QuarantinedByCode map[quarantine.Code]int64 `json:"quarantinedByCode,omitempty"`
	// Cache reports the annotation cache's counters and the serving
	// generation; Shed reports overload behavior. Together they make
	// degraded mode observable: shed.total climbing while
	// cache.hits climbs and shed.degraded_hits_served > 0 means the
	// server is at capacity but still answering the hot set.
	Cache cacheStatus `json:"cache"`
	Shed  shedStatus  `json:"shed"`
	// Corpus reports the query service's serving snapshot and shard
	// health: shards_healthy < shards_total with
	// degraded_queries_served climbing means queries are answering
	// partial results over the survivors — time to reload a snapshot.
	Corpus corpusStatus `json:"corpus"`
	// Tiers reports the annotation degradation ladder (DESIGN §15):
	// per-tier served/degraded/disagreement counters and the CRF-tier
	// breaker snapshot. rules_degraded_served climbing with
	// breaker.state "open" means the CRF tier is tripped and the
	// gazetteer tier is carrying annotation traffic.
	Tiers tierStatus `json:"tiers"`
}

// corpusStatus is the /readyz corpus block.
type corpusStatus struct {
	Enabled bool `json:"enabled"`
	// Version is the serving snapshot version ("" when disabled).
	Version               string `json:"version,omitempty"`
	Docs                  int    `json:"docs,omitempty"`
	ShardsTotal           int    `json:"shards_total"`
	ShardsHealthy         int    `json:"shards_healthy"`
	DegradedQueriesServed int64  `json:"degraded_queries_served"`
	Reloads               int64  `json:"reloads"`
	RejectedReloads       int64  `json:"rejected_reloads"`
}

// corpusStatusNow assembles the /readyz corpus block from the serving
// state.
func (s *Server) corpusStatusNow() corpusStatus {
	st := corpusStatus{
		DegradedQueriesServed: s.degradedQueries.Load(),
		Reloads:               s.corpusReloads.Load(),
		RejectedReloads:       s.corpusRejected.Load(),
	}
	if cs := s.loadCorpus(); cs != nil {
		st.Enabled = true
		st.Version = cs.version
		st.Docs = len(cs.snap.Models)
		st.ShardsTotal = len(cs.shards)
		st.ShardsHealthy = cs.healthyShards()
	}
	return st
}

// cacheStatus is the /readyz cache block.
type cacheStatus struct {
	Enabled    bool   `json:"enabled"`
	Entries    int    `json:"entries,omitempty"`
	Hits       int64  `json:"hits"`
	Misses     int64  `json:"misses"`
	Evictions  int64  `json:"evictions"`
	Generation uint64 `json:"generation"`
}

// shedStatus is the /readyz overload block.
type shedStatus struct {
	// Total counts every 429 answered since startup.
	Total int64 `json:"total"`
	// DegradedHitsServed counts cache hits served while the limiter
	// was saturated — requests that would have shed without the cache.
	DegradedHitsServed int64 `json:"degraded_hits_served"`
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	st := s.cache.Stats()
	resp := readyResponse{
		Ready:             s.ready.Load(),
		Model:             s.ModelVersion(),
		Reloads:           s.reloads.Load(),
		RejectedReloads:   s.rejected.Load(),
		Reload:            s.lastReload(),
		Quarantined:       s.quarantined.Total(),
		QuarantinedByCode: s.quarantined.ByCode(),
		Cache: cacheStatus{
			Enabled:    s.cache != nil,
			Entries:    st.Entries,
			Hits:       st.Hits,
			Misses:     st.Misses,
			Evictions:  st.Evictions,
			Generation: s.Generation(),
		},
		Shed: shedStatus{
			Total:              s.shedTotal.Load(),
			DegradedHitsServed: s.degradedHits.Load(),
		},
		Corpus: s.corpusStatusNow(),
		Tiers:  s.tierStatusNow(),
	}
	if !resp.Ready {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(resp)
		return
	}
	writeJSON(w, resp)
}

// admit reserves weight units of pipeline work for this request,
// shedding with 429 + Retry-After when the server is at capacity. On
// success the caller must invoke the returned release.
func (s *Server) admit(w http.ResponseWriter, weight int) (release func(), ok bool) {
	release, ok = s.limiter.TryAcquire(weight)
	if !ok {
		s.shed(w)
		return nil, false
	}
	return release, true
}

// shed answers 429 + Retry-After and counts it.
func (s *Server) shed(w http.ResponseWriter) {
	s.shedTotal.Add(1)
	resilience.ShedJSON(w, s.cfg.RetryAfter)
}

// logf logs through the configured logger (or the default one).
func (s *Server) logf(format string, args ...any) {
	l := s.cfg.Logger
	if l == nil {
		l = log.Default()
	}
	l.Printf(format, args...)
}

// writeJSON writes v with status 200.
func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus writes v as two-space indented JSON plus a newline
// under the given status. The annotate endpoints write the same framing
// with the append writer in respond.go instead of reflection; every
// other endpoint's body comes from here.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// httpError writes a JSON error payload.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// ctxError maps a pipeline context error to the right response: 503
// with a Retry-After when the per-request deadline expired (the server
// shed the tail of the work), nothing when the client itself went away
// (no one is reading).
func (s *Server) ctxError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "request deadline exceeded")
	}
}

// maxBody caps request bodies (1 MiB).
const maxBody = 1 << 20

// decode reads a JSON body with a sane size cap. Oversized bodies are
// 413, malformed ones 400, non-POST methods 405.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// annotateRequest is the /annotate payload.
type annotateRequest struct {
	Phrase string `json:"phrase"`
}

func (s *Server) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	var req annotateRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Phrase == "" {
		httpError(w, http.StatusBadRequest, "phrase is required")
		return
	}
	s.annotate(w, r, req.Phrase)
}

// rejectPhrase answers the 422 quarantine payload for one phrase and
// counts the rejection (shared by the CRF and rules tiers, so the
// response bytes are identical either way).
func (s *Server) rejectPhrase(w http.ResponseWriter, phrase string, err error) {
	rej := quarantine.Reject(0, phrase, err)
	s.quarantined.Observe(rej.Code)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusUnprocessableEntity)
	_ = json.NewEncoder(w).Encode(map[string]string{
		"error":  "phrase rejected",
		"code":   string(rej.Code),
		"detail": rej.Detail,
	})
}

// errShedMiss marks a decode that could not be admitted: the limiter
// is saturated and the phrase is not cached, so the request (and any
// waiters coalesced behind it) sheds with 429.
var errShedMiss = errors.New("limiter saturated; uncached decode shed")

// flightKey scopes a coalescing key to the serving generation, so a
// reload mid-herd starts a fresh flight against the new model instead
// of handing new-generation requests an old leader's result. Flights
// key on the raw phrase (not the canonical key): identical requests —
// the thundering-herd shape — still coalesce perfectly, and sharing
// only between byte-identical phrases keeps every response, including
// error details that echo the input, byte-identical to a serial
// decode of each request.
func flightKey(gen uint64, phrase string) string {
	return strconv.FormatUint(gen, 10) + "\x00" + phrase
}

// annotate is the /annotate ladder: canonical-key cache lookup (hits
// are served with zero admission weight, even under a saturated
// limiter), healthy-mode rules routing, then singleflight coalescing
// for misses with the breaker ticket and admission paid once, by the
// leader, inside the flight; CRF-tier failures fall to the rules tier
// or shed. The cached record's derived fields depend only on the
// canonical key, so the response re-echoes this request's raw phrase
// and is byte-identical to a fresh decode.
func (s *Server) annotate(w http.ResponseWriter, r *http.Request, phrase string) {
	st := s.state()
	key, kerr := core.CanonicalKey(phrase)
	if kerr == nil {
		if c, ok := s.cache.Get(key, st.gen); ok {
			if s.limiter.Saturated() {
				s.degradedHits.Add(1)
			}
			rec := c.record(phrase)
			writeRecord(w, &rec, false)
			return
		}
	}
	if s.tryRouteRules(w, phrase) {
		return
	}
	// An unkeyable phrase (kerr != nil) still flies: the decode will
	// reject it with the exact quarantine error, and concurrent
	// identical poison requests coalesce onto one rejection.
	rec, _, err := s.flights.Do(r.Context(), flightKey(st.gen, phrase), func() (core.IngredientRecord, error) {
		// Double-check inside the flight: a leader that won the race
		// against a just-finished Put (looked up before it, got the
		// flight slot after the previous leader released it) finds the
		// entry here instead of decoding again — what makes "one herd,
		// one decode" exact rather than probabilistic.
		if kerr == nil {
			if c, ok := s.cache.Get(key, st.gen); ok {
				return c.record(phrase), nil
			}
		}
		// The breaker ticket is leader-only: waiters coalesced behind
		// this flight share the outcome (and the degraded fallback)
		// without consuming half-open probe slots.
		tk := s.brk.Acquire()
		if !tk.OK() {
			return core.IngredientRecord{}, errCRFOpen
		}
		release, ok := s.limiter.TryAcquire(1)
		if !ok {
			s.brk.Cancel(tk)
			return core.IngredientRecord{}, errShedMiss
		}
		defer release()
		rec, err := st.pipe.AnnotateIngredientChecked(phrase)
		s.brk.Done(tk, !isCRFFailure(err))
		if err != nil {
			return core.IngredientRecord{}, err
		}
		if kerr == nil {
			s.cache.Put(key, st.gen, packRecord(&rec))
		}
		s.maybeAudit(phrase, rec)
		return rec, nil
	})
	switch {
	case err == nil:
		s.crfServed.Add(1)
		rec.Phrase = phrase
		writeRecord(w, &rec, false)
	case errors.Is(err, errCRFOpen):
		s.serveRulesDegraded(w, phrase)
	case errors.Is(err, errShedMiss):
		// Saturated miss: the rules rung answers without pipeline
		// admission; shed only when it is absent.
		if s.cfg.Rules != nil {
			s.serveRulesDegraded(w, phrase)
			return
		}
		s.shed(w)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// a detached waiter: the client's context died while the
		// leader was decoding.
		s.ctxError(w, err)
	default:
		// A contained pipeline panic degrades to the rules tier when
		// one is configured; input poison rejects 422 from any tier.
		if isCRFFailure(err) && s.cfg.Rules != nil {
			s.serveRulesDegraded(w, phrase)
			return
		}
		s.rejectPhrase(w, phrase, err)
	}
}

// batchAnnotateRequest is the /annotate/batch payload.
type batchAnnotateRequest struct {
	Phrases []string `json:"phrases"`
}

// maxBatchPhrases caps one /annotate/batch request; corpus-scale
// clients should stream chunks of this size.
const maxBatchPhrases = 10000

func (s *Server) handleAnnotateBatch(w http.ResponseWriter, r *http.Request) {
	var req batchAnnotateRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Phrases) == 0 {
		httpError(w, http.StatusBadRequest, "phrases are required")
		return
	}
	if len(req.Phrases) > maxBatchPhrases {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("at most %d phrases per batch", maxBatchPhrases))
		return
	}
	s.annotateBatch(w, r, req.Phrases)
}

// annotateBatch is the /annotate/batch ladder: cached phrases are
// served for free, the remaining distinct phrases are deduplicated (a
// 10k-phrase batch of "salt" decodes once) and decoded through the
// worker-pool partial API, and admission is weighed by the
// deduplicated miss count only — so under overload an all-hot batch
// still answers while a cold batch sheds. Slots whose decode panicked
// fall to the rules tier; input poison rejects at its slot. Dedup is
// by raw phrase: derived record fields depend only on the canonical
// key, but rejection details echo the input, and byte-identity with a
// serial per-phrase decode is the differential contract.
func (s *Server) annotateBatch(w http.ResponseWriter, r *http.Request, phrases []string) {
	st := s.state()
	n := len(phrases)
	recs := make([]core.IngredientRecord, n)
	done := make([]bool, n)
	keys := make([]string, n)
	keyOK := make([]bool, n)
	hits := 0
	for i, p := range phrases {
		key, kerr := core.CanonicalKey(p)
		if kerr != nil {
			continue // decodes (and rejects) below
		}
		keys[i], keyOK[i] = key, true
		if c, ok := s.cache.Get(key, st.gen); ok {
			recs[i] = c.record(p)
			done[i] = true
			hits++
		}
	}
	// Saturation is sampled at arrival: a batch's own miss admission
	// must not make its hits look degraded. The counter moves only
	// when the batch is actually served (below) — hits in a batch that
	// sheds on its miss weight were never answered.
	degraded := hits > 0 && s.limiter.Saturated()
	var rejs []quarantine.Rejection
	missIdx := make(map[string]int) // raw phrase → index into miss slices
	var missPhrases []string
	var missKeys []string
	var missKeyOK []bool
	for i, p := range phrases {
		if done[i] {
			continue
		}
		if _, seen := missIdx[p]; seen {
			continue
		}
		missIdx[p] = len(missPhrases)
		missPhrases = append(missPhrases, p)
		missKeys = append(missKeys, keys[i])
		missKeyOK = append(missKeyOK, keyOK[i])
	}
	fellBack := false
	if len(missPhrases) > 0 {
		tk := s.brk.Acquire()
		if !tk.OK() {
			// Breaker open: cache hits stand, every other slot resolves
			// on the rules tier.
			s.finishBatchRules(w, phrases, recs, done, nil)
			return
		}
		release, ok := s.limiter.TryAcquire(len(missPhrases))
		if !ok {
			s.brk.Cancel(tk)
			if s.cfg.Rules != nil {
				if hits > 0 {
					s.degradedHits.Add(int64(hits))
				}
				s.finishBatchRules(w, phrases, recs, done, nil)
				return
			}
			s.shed(w)
			return
		}
		defer release()
		mrecs, mrejs, err := st.pipe.AnnotateIngredientsPartial(r.Context(), missPhrases)
		if err != nil {
			s.brk.Cancel(tk)
			s.ctxError(w, err)
			return
		}
		crfOK := batchCRFSuccess(mrejs)
		s.brk.Done(tk, crfOK)
		rulesRetry := !crfOK && s.cfg.Rules != nil
		rejected := make(map[int]quarantine.Rejection, len(mrejs))
		for _, rej := range mrejs {
			rejected[rej.Index] = rej
		}
		for j := range missPhrases {
			if _, bad := rejected[j]; !bad && missKeyOK[j] {
				s.cache.Put(missKeys[j], st.gen, packRecord(&mrecs[j]))
			}
		}
		// Expand the deduplicated results back onto every slot. A
		// duplicate of a rejected phrase rejects at every slot it
		// occupies, exactly as a per-slot decode would; a rejected slot
		// is done, so the rules tier below never re-serves it.
		for i, p := range phrases {
			if done[i] {
				continue
			}
			j := missIdx[p]
			if rej, bad := rejected[j]; bad {
				if rulesRetry && isPanicCode(rej.Code) {
					// The CRF tier panicked on this phrase: leave the
					// slot undone for the rules tier below.
					fellBack = true
					continue
				}
				rej.Index = i
				rejs = append(rejs, rej)
				done[i] = true
				continue
			}
			rec := mrecs[j]
			rec.Phrase = p
			recs[i] = rec
			done[i] = true
		}
	}
	if degraded {
		s.degradedHits.Add(int64(hits))
	}
	if fellBack {
		s.finishBatchRules(w, phrases, recs, done, rejs)
		return
	}
	s.writeBatchTier(w, recs, rejs, nil)
}

// modelRequest is the /model payload.
type modelRequest struct {
	Title        string   `json:"title"`
	Cuisine      string   `json:"cuisine"`
	Ingredients  []string `json:"ingredients"`
	Instructions string   `json:"instructions"`
}

// modelResponse wraps the mined model with its nutrition estimate.
type modelResponse struct {
	Model     *core.RecipeModel `json:"model"`
	Nutrition nutrition.Profile `json:"nutrition"`
	Resolved  int               `json:"resolvedIngredients"`
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	var req modelRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Ingredients) == 0 {
		httpError(w, http.StatusBadRequest, "ingredients are required")
		return
	}
	release, ok := s.admit(w, 1)
	if !ok {
		return
	}
	defer release()
	m, err := s.state().pipe.ModelRecipeContext(r.Context(), req.Title, req.Cuisine, req.Ingredients, req.Instructions)
	if err != nil {
		s.ctxError(w, err)
		return
	}
	profile, resolved := s.estimator.EstimateRecipe(m)
	writeJSON(w, modelResponse{Model: m, Nutrition: profile, Resolved: resolved})
}

// searchRequest mirrors index.Query with JSON tags.
type searchRequest struct {
	Ingredients []string `json:"ingredients"`
	Processes   []string `json:"processes"`
	Utensils    []string `json:"utensils"`
	Cuisine     string   `json:"cuisine"`
}

// searchHit is one /search result row.
type searchHit struct {
	ID      int    `json:"id"`
	Title   string `json:"title"`
	Cuisine string `json:"cuisine"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if s.ix == nil {
		httpError(w, http.StatusServiceUnavailable, "no corpus indexed")
		return
	}
	var req searchRequest
	if !decode(w, r, &req) {
		return
	}
	release, ok := s.admit(w, 1)
	if !ok {
		return
	}
	defer release()
	hits := s.ix.Search(index.Query{
		Ingredients: req.Ingredients,
		Processes:   req.Processes,
		Utensils:    req.Utensils,
		Cuisine:     req.Cuisine,
	})
	out := make([]searchHit, 0, len(hits))
	for _, id := range hits {
		m := s.ix.Model(id)
		out = append(out, searchHit{ID: id, Title: m.Title, Cuisine: m.Cuisine})
	}
	writeJSON(w, out)
}
