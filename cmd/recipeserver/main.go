// Command recipeserver serves the recipe-modeling pipeline over HTTP:
// it trains (or loads) a pipeline, optionally mines and indexes a
// synthetic corpus for /search, and listens until a SIGINT/SIGTERM
// asks it to drain.
//
// Usage:
//
//	recipeserver -addr :8080 -corpus 200
//	recipeserver -model pipeline.bin -corpus 0 -max-inflight 512 -request-timeout 30s
//	recipeserver -store models/ -corpus 0    # versioned store + hot reload
//
// Endpoints: POST /annotate, POST /annotate/batch, POST /model,
// POST /search, POST /query/similar, /query/search and
// /query/nutrition (-snapshots only), POST /admin/reload (hot model
// swap, -store only), POST /admin/reload/corpus (snapshot hot-swap,
// -snapshots only), GET /healthz (liveness), GET /readyz (readiness +
// reload state — true only once training and corpus indexing finish).
// The internal/server package comment gives each endpoint's request
// and response shape.
//
// Resilience posture: the http.Server runs with hardened read/write
// timeouts (a stalled client cannot hold a connection forever), the
// handler stack sheds load with 429 once -max-inflight work units are
// admitted, panics answer 500 without killing the process, and a
// termination signal flips /readyz to false, drains in-flight requests
// for up to -drain-timeout, then exits 0.
//
// Heavy-tail posture: annotations are memoized in a bounded,
// generation-pinned cache (-cache-entries, default 65536; 0 turns the
// memo off) with singleflight coalescing, so a herd of identical
// requests decodes once and, under a saturated limiter, cached
// phrases still answer while only uncached work sheds. Coalescing and
// in-batch dedup stay on with the memo off. /readyz reports the cache
// and shed counters.
//
// Tier posture: annotation resolves through the degradation ladder
// (DESIGN §15): CRF tier → cache hot-set → rules tier → shed. A
// circuit breaker watches CRF-tier health (contained record panics,
// canary-rejected reloads, shard failures); when it trips, annotation
// endpoints answer 200 from the deterministic gazetteer tier
// (degraded:true, tier:"rules") instead of 429/500, and half-open
// probes restore the CRF tier automatically. -rules-off disables the
// ladder; -rules-route enables healthy-mode short-circuiting of
// high-confidence phrases; -breaker-* tune the trip/probe behavior;
// -agreement-sample audits CRF output against the rules tier. /readyz
// reports per-tier counters and the breaker state.
//
// Query posture: with -snapshots the server boots a versioned corpus
// snapshot store (internal/snapshot) and serves POST /query/similar,
// /query/search, and /query/nutrition over -query-shards in-memory
// shards with per-shard panic containment and an optional
// -query-shard-budget deadline. A failed shard degrades queries to
// partial results (degraded:true in the envelope) instead of 5xx. Boot
// uses the newest snapshot that passes integrity checks — a torn
// CURRENT version is rejected with a named-file digest error and the
// previous version serves. SIGHUP (or POST /admin/reload/corpus)
// hot-swaps to a newly published snapshot; in-flight queries finish on
// the snapshot they started on.
//
// Boot posture: the boot runs on two lanes. With -snapshots the corpus
// snapshot loads on its own goroutine while the model loads (or trains)
// and the -corpus mining runs; the lanes join before the server and its
// query shards are built, which uses every core. So the "corpus
// snapshot rejected at boot" lines may interleave with the mining line.
// The listener opens, and /readyz turns true, only after all of it.
//
// Durability posture: with -store the pipeline is served out of a
// versioned, checksummed model store (internal/persist). A retrain
// publishes a new version with `recipemine train -store`; SIGHUP or
// POST /admin/reload makes the server load it off to the side, run the
// canary self-check, and atomically swap it in — a corrupt or
// canary-failing bundle is rejected and the old model keeps serving.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"recipemodel"
	"recipemodel/internal/breaker"
	"recipemodel/internal/core"
	"recipemodel/internal/faults"
	"recipemodel/internal/index"
	"recipemodel/internal/quarantine"
	"recipemodel/internal/resilience"
	"recipemodel/internal/rules"
	"recipemodel/internal/server"
	"recipemodel/internal/snapshot"
)

// pipeAdapter bridges the public Pipeline to the server's interface.
type pipeAdapter struct {
	p *recipemodel.Pipeline
}

func (a pipeAdapter) AnnotateIngredientChecked(phrase string) (core.IngredientRecord, error) {
	return a.p.AnnotateIngredientChecked(phrase)
}

func (a pipeAdapter) AnnotateIngredientsPartial(ctx context.Context, phrases []string) ([]core.IngredientRecord, []quarantine.Rejection, error) {
	return a.p.AnnotateIngredientsPartial(ctx, phrases)
}

func (a pipeAdapter) ModelRecipeContext(ctx context.Context, title, cuisine string, ingredientLines []string, instructions string) (*core.RecipeModel, error) {
	return a.p.ModelRecipeContext(ctx, title, cuisine, ingredientLines, instructions)
}

// storeLoader builds the hot-reload loader for a versioned model
// store: every call loads the store's CURRENT version fresh, so a
// retrain that published a new version is picked up by the next
// reload.
func storeLoader(storePath string) func() (server.Pipeline, string, error) {
	return func() (server.Pipeline, string, error) {
		p, version, err := recipemodel.LoadPipelineFromStore(storePath)
		if err != nil {
			return nil, version, err
		}
		return pipeAdapter{p}, version, nil
	}
}

// buildServer assembles the resilient HTTP server: load (from a flat
// file or a versioned store) or train a pipeline, optionally mine a
// corpus for /search, and with a snapshot directory boot the query
// corpus from it. With a store path the hot-reload loader is wired
// into the config so /admin/reload and SIGHUP can swap in retrained
// versions. The returned server is not yet ready (SetReady) — main
// flips it after assembly so /readyz answers false for the whole
// training window. Extracted from main so tests can drive the full
// assembly.
//
// The boot runs on two lanes. The snapshot loads on its own goroutine
// while the pipeline loads and the -corpus mining runs on the calling
// one; the lanes share no state, and both join before
// server.NewWithConfig, on every return path. When both fail, the
// snapshot error is the one returned.
func buildServer(modelPath, storePath, snapshotsPath string, corpusSize int, opts recipemodel.Options, cfg server.Config) (*server.Server, error) {
	type corpusLane struct {
		snap   *snapshot.Snapshot
		loader func() (*snapshot.Snapshot, error)
		err    error
	}
	lane := make(chan corpusLane, 1)
	if snapshotsPath == "" {
		lane <- corpusLane{}
	} else {
		go func() {
			var c corpusLane
			c.snap, c.loader, c.err = openCorpus(snapshotsPath, log.Default())
			lane <- c
		}()
	}
	p, ix, err := loadPipeline(modelPath, storePath, corpusSize, opts, &cfg)
	c := <-lane
	if c.err != nil {
		return nil, c.err
	}
	if err != nil {
		return nil, err
	}
	if c.snap != nil {
		cfg.CorpusSnapshot = c.snap
		cfg.CorpusLoader = c.loader
		log.Printf("serving corpus snapshot %s (%d docs) over %d shards", c.snap.Version, len(c.snap.Models), cfg.CorpusShards)
	}
	return server.NewWithConfig(pipeAdapter{p}, ix, cfg), nil
}

// loadPipeline is the boot's model lane: it loads or trains the
// pipeline, recording a store's version and reload loader in cfg, then
// mines and indexes corpusSize synthetic recipes for /search.
func loadPipeline(modelPath, storePath string, corpusSize int, opts recipemodel.Options, cfg *server.Config) (*recipemodel.Pipeline, *index.Index, error) {
	var p *recipemodel.Pipeline
	var err error
	switch {
	case storePath != "":
		p, cfg.ModelVersion, err = recipemodel.LoadPipelineFromStore(storePath)
		cfg.Loader = storeLoader(storePath)
	case modelPath != "":
		var f *os.File
		f, err = os.Open(modelPath)
		if err != nil {
			return nil, nil, err
		}
		p, err = recipemodel.LoadPipeline(f)
		f.Close()
	default:
		log.Println("training pipeline on synthetic gold corpus ...")
		p, err = recipemodel.NewPipeline(opts)
	}
	if err != nil {
		return nil, nil, err
	}

	var ix *index.Index
	if corpusSize > 0 {
		log.Printf("mining %d recipes for /search on %d workers ...", corpusSize, p.Workers())
		models := p.ModelRecipes(recipemodel.Inputs(recipemodel.SyntheticRecipes(corpusSize, 1)))
		ix = index.New(models)
	}
	return p, ix, nil
}

// defaultCacheEntries bounds the annotation cache out of the box: big
// enough that a heavy-tail phrase distribution lives entirely in
// cache. A full cache retains about 156 bytes per entry (the 80-byte
// slab slot, 16 bytes of index at half load, the key and the packed
// record; measured by BenchmarkCacheFootprint in internal/server),
// 10.2 MB of live heap at 64k entries. The collector lets the heap
// grow to about twice what is live, so on the batch-corpus benchmark,
// which fills the cache, it adds about 17 MB to peak RSS: 101 MB
// against 84 MB with -cache-entries 0, a sixth of the server's peak.
// There, at a 17% hit ratio, the memo breaks even on CPU: 1,857
// against 1,917 µs per request with it off, each side ahead in 5 of 10
// alternating pairs.
const defaultCacheEntries = 64 << 10

// cacheConfigLine is the startup log line stating the cache posture,
// so an operator reading the log knows whether heavy-tail hardening
// is active without probing /readyz.
func cacheConfigLine(entries int) string {
	if entries <= 0 {
		return "annotation cache: off (no memo; request coalescing and batch dedup stay on)"
	}
	return fmt.Sprintf("annotation cache: on (%d entries, singleflight coalescing, hits served under overload)", entries)
}

// tierConfigLine is the startup log line stating the degradation-
// ladder posture (DESIGN §15), mirroring cacheConfigLine.
func tierConfigLine(enabled, route bool, threshold float64) string {
	if !enabled {
		return "rules tier: off (CRF failures surface; no degraded fallback)"
	}
	if route {
		return fmt.Sprintf("rules tier: on (breaker-guarded fallback; healthy-mode routing at confidence >= %g)", threshold)
	}
	return "rules tier: on (breaker-guarded fallback; healthy-mode routing off)"
}

// openCorpus boots the query-service corpus from a versioned snapshot
// store: the newest snapshot that passes integrity checks is loaded
// (each rejected version is logged with its named-file digest error),
// and the returned loader backs /admin/reload/corpus and the SIGHUP
// hot-swap. The loader reads CURRENT strictly — a torn freshly
// published version is a rejected reload, never a silent rollback.
func openCorpus(dir string, logger *log.Logger) (*snapshot.Snapshot, func() (*snapshot.Snapshot, error), error) {
	st, err := snapshot.OpenStore(dir)
	if err != nil {
		return nil, nil, err
	}
	snap, rejected, err := st.LoadLatestGood(context.Background())
	for _, rerr := range rejected {
		logger.Printf("corpus snapshot rejected at boot: %v", rerr)
	}
	if err != nil {
		return nil, nil, err
	}
	return snap, func() (*snapshot.Snapshot, error) { return st.Load(context.Background()) }, nil
}

// newHTTPServer wraps the handler in a hardened http.Server: header
// reads, full-request reads, response writes, and idle keep-alives are
// all bounded so no stalled peer can pin a connection goroutine
// indefinitely.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

// FaultSighup fires after a SIGHUP reload round (model and, when
// configured, corpus) has fully completed. Tests gate on its OnHit
// instead of sleep-polling the served versions.
const FaultSighup = "recipeserver.sighup_done"

// FaultDrain fires right after a termination signal flips readiness
// false, before the drain starts — the exact instant load balancers
// stop routing here.
const FaultDrain = "recipeserver.drain_start"

var (
	_ = faults.MustRegister(FaultSighup)
	_ = faults.MustRegister(FaultDrain)
)

// serve runs srv on ln until a termination signal arrives on sigs,
// then drains gracefully: readiness flips false (load balancers stop
// routing here), in-flight requests get up to drain to finish, and a
// clean drain returns nil so the process exits 0. A SIGHUP is not a
// termination: it triggers a validated hot reload (rejections are
// logged, the old model keeps serving) and the server keeps running.
// Split from main so tests can feed the signal channel directly.
func serve(srv *http.Server, s *server.Server, ln net.Listener, drain time.Duration, sigs <-chan os.Signal, logger *log.Logger) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	for {
		select {
		case err := <-errc:
			return err
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				if version, err := s.Reload(); err != nil {
					logger.Printf("SIGHUP reload rejected: %v (still serving %s)", err, s.ModelVersion())
				} else {
					logger.Printf("SIGHUP reload ok: serving model %s", version)
				}
				if s.CorpusReloadEnabled() {
					if version, err := s.ReloadCorpus(); err != nil {
						logger.Printf("SIGHUP corpus reload rejected: %v (still serving %s)", err, s.CorpusVersion())
					} else {
						logger.Printf("SIGHUP corpus reload ok: serving snapshot %s", version)
					}
				}
				_ = faults.Inject(FaultSighup)
				continue
			}
			logger.Printf("received %v; draining in-flight requests (up to %v)", sig, drain)
			s.SetReady(false)
			_ = faults.Inject(FaultDrain)
			ctx, cancel := context.WithTimeout(context.Background(), drain)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				return fmt.Errorf("drain incomplete: %w", err)
			}
			logger.Print("drained; exiting")
			return nil
		}
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	modelPath := flag.String("model", "", "persisted pipeline file (empty: train fresh)")
	storePath := flag.String("store", "", "versioned model store directory; enables /admin/reload and SIGHUP hot reload (overrides -model)")
	corpusSize := flag.Int("corpus", 200, "synthetic recipes to mine and index for /search (0 disables)")
	maxInFlight := flag.Int("max-inflight", 1024, "admitted work units before shedding with 429 (batch = distinct uncached phrases; 0 = unlimited)")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline threaded through the pipeline (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown budget for in-flight requests")
	cacheEntries := flag.Int("cache-entries", defaultCacheEntries, "annotation cache capacity in entries (<= 0 turns the memo off; coalescing and batch dedup stay on)")
	snapshotsPath := flag.String("snapshots", "", "versioned corpus snapshot store directory; enables the /query endpoints and corpus hot reload")
	queryShards := flag.Int("query-shards", 4, "in-memory corpus shards behind the /query endpoints (clamped to the doc count)")
	queryShardBudget := flag.Duration("query-shard-budget", 2*time.Second, "per-shard deadline before a query degrades to partial results (0 disables)")
	rulesOff := flag.Bool("rules-off", false, "disable the rule-tier annotation fallback (annotation errors surface instead of degrading)")
	rulesRoute := flag.Bool("rules-route", false, "healthy-mode routing: answer high-confidence phrases from the rules tier without a CRF decode")
	rulesThreshold := flag.Float64("rules-threshold", 1, "minimum rules-tier confidence for healthy-mode routing and agreement audits, in (0, 1]")
	breakerWindow := flag.Int("breaker-window", 64, "CRF-tier breaker: sliding outcome window size")
	breakerFailureRate := flag.Float64("breaker-failure-rate", 0.5, "CRF-tier breaker: failure fraction of the window that trips it open")
	breakerMinSamples := flag.Int("breaker-min-samples", 8, "CRF-tier breaker: outcomes required in the window before it can trip")
	breakerOpenTimeout := flag.Duration("breaker-open-timeout", 5*time.Second, "CRF-tier breaker: base open interval before half-open probing (escalates with jittered backoff)")
	breakerProbes := flag.Int("breaker-probes", 1, "CRF-tier breaker: concurrent half-open probe decodes")
	breakerCloseAfter := flag.Int("breaker-close-successes", 3, "CRF-tier breaker: consecutive probe successes that close it")
	agreementSample := flag.Int("agreement-sample", 0, "audit every Nth successful CRF decode against the rules tier (0 disables)")
	flag.Parse()

	cfg := server.Config{
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *requestTimeout,
		RetryAfter:     time.Second,
		CacheEntries:   *cacheEntries,
	}
	log.Print(cacheConfigLine(cfg.CacheEntries))
	if !*rulesOff {
		cfg.Rules = rules.New()
		cfg.RulesRoute = *rulesRoute
		cfg.RulesThreshold = *rulesThreshold
		cfg.AgreementSample = *agreementSample
		cfg.Breaker = breaker.Config{
			Window:      *breakerWindow,
			FailureRate: *breakerFailureRate,
			MinSamples:  *breakerMinSamples,
			OpenTimeout: *breakerOpenTimeout,
			MaxProbes:   *breakerProbes,
			CloseAfter:  *breakerCloseAfter,
			// Escalating, spread-jittered reopen schedule: a fleet of
			// replicas tripping together desynchronizes its probes
			// instead of re-hammering a struggling model in lockstep.
			ReopenBackoff: &resilience.Backoff{
				Base:     *breakerOpenTimeout,
				Max:      8 * *breakerOpenTimeout,
				Attempts: 6,
				Jitter:   0.5,
				Mode:     resilience.JitterSpread,
				Seed:     int64(os.Getpid()),
			},
		}
	}
	log.Print(tierConfigLine(!*rulesOff, *rulesRoute, *rulesThreshold))
	if *snapshotsPath != "" {
		cfg.CorpusShards = *queryShards
		cfg.QueryShardBudget = *queryShardBudget
	}
	s, err := buildServer(*modelPath, *storePath, *snapshotsPath, *corpusSize, recipemodel.DefaultOptions(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	s.SetReady(true)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	log.Printf("listening on %s (ready)", *addr)
	if err := serve(newHTTPServer(*addr, s), s, ln, *drainTimeout, sigs, log.Default()); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
