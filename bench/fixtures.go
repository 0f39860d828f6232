package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"recipemodel"
	"recipemodel/internal/breaker"
	"recipemodel/internal/core"
	"recipemodel/internal/persist"
	"recipemodel/internal/quarantine"
	"recipemodel/internal/resilience"
	"recipemodel/internal/rules"
	"recipemodel/internal/server"
	"recipemodel/internal/snapshot"
)

// fixtureSpec sizes the fixtures: the model the server loads and the
// corpus snapshot it serves. Fixtures are part of the system under
// test, so they are built by the code under test and do not depend on
// the workload seed.
type fixtureSpec struct {
	opts       recipemodel.Options
	docs       int
	corpusSeed int64
}

var defaultFixtures = fixtureSpec{opts: recipemodel.DefaultOptions(), docs: 5000, corpusSeed: 2}

// fixtures locates a built model store and corpus snapshot store, with
// the digests that identify them in a result.
type fixtures struct {
	storeDir    string
	snapDir     string
	bundleSHA   string
	manifestSHA string
}

// buildFixtures trains the default pipeline into a versioned model
// store and publishes a mined corpus as a snapshot, both under dir.
func buildFixtures(dir string, spec fixtureSpec) (*fixtures, error) {
	p, err := recipemodel.NewPipeline(spec.opts)
	if err != nil {
		return nil, fmt.Errorf("train fixture model: %w", err)
	}
	if _, err := p.SaveToStore(filepath.Join(dir, "store")); err != nil {
		return nil, fmt.Errorf("save fixture model: %w", err)
	}
	models := p.ModelRecipes(recipemodel.Inputs(recipemodel.SyntheticRecipes(spec.docs, spec.corpusSeed)))
	st, err := snapshot.OpenStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		return nil, err
	}
	if _, err := st.Build(models); err != nil {
		return nil, fmt.Errorf("publish fixture snapshot: %w", err)
	}
	return openFixtures(dir)
}

// ensureFixtures returns the default fixtures cached under root/key,
// building them first when absent. key identifies the code that builds
// them, so a changed checkout never reuses another's fixtures.
func ensureFixtures(root, key string) (*fixtures, error) {
	dir := filepath.Join(root, key)
	if _, err := os.Stat(dir); err == nil {
		return openFixtures(dir)
	}
	tmp := fmt.Sprintf("%s.tmp-%d", dir, os.Getpid())
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	if _, err := buildFixtures(tmp, defaultFixtures); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, err
	}
	return openFixtures(dir)
}

func openFixtures(dir string) (*fixtures, error) {
	fx := &fixtures{storeDir: filepath.Join(dir, "store"), snapDir: filepath.Join(dir, "snapshots")}
	var err error
	if fx.bundleSHA, err = currentFileSHA(fx.storeDir, "bundles", "bundle.gob"); err != nil {
		return nil, err
	}
	if fx.manifestSHA, err = currentFileSHA(fx.snapDir, "snapshots", "MANIFEST.json"); err != nil {
		return nil, err
	}
	return fx, nil
}

// currentFileSHA hashes file name inside the version a store's CURRENT
// pointer names.
func currentFileSHA(storeDir, sub, name string) (string, error) {
	version, err := persist.ReadCurrentPointer(storeDir)
	if err != nil {
		return "", err
	}
	return fileSHA(filepath.Join(storeDir, sub, version, name))
}

func fileSHA(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// reference is the system under test rebuilt in process from the same
// fixtures: the oracle's source of truth and the state the traced
// replay calls layers on.
type reference struct {
	fx           *fixtures
	pipe         *core.Pipeline
	modelVersion string
	snap         *snapshot.Snapshot
}

func loadReference(fx *fixtures) (*reference, error) {
	st, err := persist.OpenStore(fx.storeDir)
	if err != nil {
		return nil, err
	}
	ing, ins, version, err := st.Load()
	if err != nil {
		return nil, fmt.Errorf("load fixture model: %w", err)
	}
	snap, err := loadSnapshot(fx.snapDir)
	if err != nil {
		return nil, err
	}
	return &reference{fx: fx, pipe: core.NewPipeline(nil, ing, ins, nil), modelVersion: version, snap: snap}, nil
}

func loadSnapshot(dir string) (*snapshot.Snapshot, error) {
	st, err := snapshot.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	snap, err := st.Load(context.Background())
	if err != nil {
		return nil, fmt.Errorf("load fixture snapshot: %w", err)
	}
	return snap, nil
}

// pipeAdapter serves a core.Pipeline through the server's interface the
// way recipemodel.Pipeline does: batch calls on runtime.NumCPU workers.
type pipeAdapter struct{ p *core.Pipeline }

func (a pipeAdapter) AnnotateIngredient(phrase string) core.IngredientRecord {
	return a.p.AnnotateIngredient(phrase)
}

func (a pipeAdapter) AnnotateIngredientChecked(phrase string) (core.IngredientRecord, error) {
	return a.p.AnnotateIngredientChecked(phrase)
}

func (a pipeAdapter) AnnotateIngredientsContext(ctx context.Context, phrases []string) ([]core.IngredientRecord, error) {
	return a.p.AnnotateIngredientsContext(ctx, phrases, runtime.NumCPU())
}

func (a pipeAdapter) AnnotateIngredientsPartial(ctx context.Context, phrases []string) ([]core.IngredientRecord, []quarantine.Rejection, error) {
	return a.p.AnnotateIngredientsPartial(ctx, phrases, runtime.NumCPU())
}

func (a pipeAdapter) ModelRecipeContext(ctx context.Context, title, cuisine string, ingredientLines []string, instructions string) (*core.RecipeModel, error) {
	return a.p.ModelRecipeContext(ctx, title, cuisine, ingredientLines, instructions)
}

// defaultShards is recipeserver's -query-shards default.
const defaultShards = 4

// newServer builds an in-process server.Server over the reference with
// recipeserver's flag defaults, partitioning the corpus into shards.
// The traced replay compares its /readyz config blocks with the booted
// binary's, so this copy cannot drift from cmd/recipeserver unnoticed.
func (r *reference) newServer(shards int) *server.Server {
	cfg := server.Config{
		MaxInFlight:    1024,
		RequestTimeout: 30 * time.Second,
		RetryAfter:     time.Second,
		CacheEntries:   64 << 10,
		ModelVersion:   r.modelVersion,
		Rules:          rules.New(),
		RulesThreshold: 1,
		Breaker: breaker.Config{
			Window:      64,
			FailureRate: 0.5,
			MinSamples:  8,
			OpenTimeout: 5 * time.Second,
			MaxProbes:   1,
			CloseAfter:  3,
			ReopenBackoff: &resilience.Backoff{
				Base:     5 * time.Second,
				Max:      40 * time.Second,
				Attempts: 6,
				Jitter:   0.5,
				Mode:     resilience.JitterSpread,
				Seed:     int64(os.Getpid()),
			},
		},
		CorpusSnapshot:   r.snap,
		CorpusShards:     shards,
		CorpusLoader:     func() (*snapshot.Snapshot, error) { return loadSnapshot(r.fx.snapDir) },
		QueryShardBudget: 2 * time.Second,
	}
	s := server.NewWithConfig(pipeAdapter{r.pipe}, nil, cfg)
	s.SetReady(true)
	return s
}
