// Command benchtiers measures the two annotation tiers — the trained
// CRF pipeline and the deterministic rules fallback (DESIGN §15) —
// against the same gold ingredient corpus, reporting per-tier entity
// F1 (micro and per type) and decode throughput. The numbers quantify
// the degradation ladder's middle rung: what accuracy a client gives
// up, and what latency it gains, when the breaker routes a request to
// the rules tier because the CRF tier is unhealthy.
//
// Usage:
//
//	benchtiers                      # paper-scale corpus, print JSON
//	benchtiers -out BENCH_PR10.json # also write the artifact
//	benchtiers -scale 10            # 10× smaller (quick smoke)
//
// The corpus is the same synthetic RecipeDB gold set the accuracy
// tables use (both sources pooled, deterministic seed), so the CRF
// side of this report is directly comparable to Table IV. Throughput
// is measured over repeated full passes of the held-out test set on a
// single goroutine — the per-decode cost a saturated server pays, not
// a parallel-scaling claim.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"recipemodel/internal/corpus"
	"recipemodel/internal/metrics"
	"recipemodel/internal/ner"
	"recipemodel/internal/recipedb"
	"recipemodel/internal/rules"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtiers:", err)
		os.Exit(1)
	}
}

// tierResult is one tier's score card.
type tierResult struct {
	MicroF1        float64            `json:"micro_f1"`
	Precision      float64            `json:"precision"`
	Recall         float64            `json:"recall"`
	PerTypeF1      map[string]float64 `json:"per_type_f1"`
	PhrasesPerSec  float64            `json:"phrases_per_sec"`
	NsPerPhrase    float64            `json:"ns_per_phrase"`
	MeasuredPasses int                `json:"measured_passes"`
}

// report is the BENCH_PR10.json shape.
type report struct {
	PR      int    `json:"pr"`
	Title   string `json:"title"`
	Machine struct {
		Cores  int    `json:"cores"`
		GOOS   string `json:"goos"`
		GOARCH string `json:"goarch"`
		Note   string `json:"note"`
	} `json:"machine"`
	Corpus struct {
		PoolAllRecipes int     `json:"pool_allrecipes"`
		PoolFoodCom    int     `json:"pool_foodcom"`
		Train          int     `json:"train_sentences"`
		Test           int     `json:"test_sentences"`
		Epochs         int     `json:"crf_epochs"`
		NoiseRate      float64 `json:"noise_rate"`
		Seed           int64   `json:"seed"`
	} `json:"corpus"`
	Tiers   map[string]*tierResult `json:"tiers"`
	Summary struct {
		F1Gap        string `json:"f1_gap"`
		SpeedRatio   string `json:"speed_ratio"`
		Interpreting string `json:"interpreting"`
	} `json:"summary"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchtiers", flag.ContinueOnError)
	out := fs.String("out", "", "also write the JSON artifact to this path")
	scale := fs.Int("scale", 1, "shrink factor for quick runs (1 = paper scale)")
	seed := fs.Int64("seed", 1, "corpus + training seed")
	epochs := fs.Int("epochs", 6, "CRF training epochs")
	noise := fs.Float64("noise", 0.04, "annotation noise rate (the Table IV protocol)")
	minTime := fs.Duration("mintime", 2*time.Second, "minimum wall time per tier's throughput measurement")
	if err := fs.Parse(args); err != nil {
		return err
	}

	poolA, poolF := 14700/max(1, *scale), 25710/max(1, *scale)
	rng := rand.New(rand.NewSource(*seed))

	// The same gold corpus the accuracy tables draw from: both sources
	// pooled, an 80/20 split. No clustering stage here — tier-vs-tier
	// only needs one shared test set, not the paper's sampling design.
	pool := func(src recipedb.Source, n int, seed int64) []ner.Sentence {
		g := recipedb.NewGenerator(src, seed)
		return corpus.IngredientSentences(g.UniquePhrases(n))
	}
	all := append(pool(recipedb.SourceAllRecipes, poolA, *seed+10),
		pool(recipedb.SourceFoodCom, poolF, *seed+20)...)
	all = corpus.Noisify(all, *noise, rng)
	train, test := corpus.Split(all, 0.2, rng)
	gold := corpus.Gold(test)

	model := ner.Train(train, ner.IngredientTypes,
		ner.NewIngredientExtractor(ner.DefaultFeatureOptions),
		ner.TrainConfig{Epochs: *epochs, Seed: *seed + 30, Method: "sgd"})
	rt := rules.New()

	// The rules tier tags lower-cased words (the server lower-cases
	// post-tokenization); span indices are unaffected, so predictions
	// stay comparable to the gold spans over the original tokens.
	lower := make([][]string, len(test))
	for i, s := range test {
		ws := make([]string, len(s.Tokens))
		for j, tok := range s.Tokens {
			ws[j] = strings.ToLower(tok)
		}
		lower[i] = ws
	}

	crfPredict := func() [][]ner.Span { return corpus.Predict(model, test) }
	rulesPredict := func() [][]ner.Span {
		out := make([][]ner.Span, len(test))
		for i, ws := range lower {
			out[i] = rt.AppendTag(nil, ws)
		}
		return out
	}

	rep := &report{PR: 10, Title: "Rules tier vs CRF tier: accuracy and latency on the gold ingredient corpus"}
	rep.Machine.Cores = runtime.NumCPU()
	rep.Machine.GOOS = runtime.GOOS
	rep.Machine.GOARCH = runtime.GOARCH
	rep.Machine.Note = "single-goroutine decode passes over the held-out test set; throughput is per-decode cost, not parallel scaling"
	rep.Corpus.PoolAllRecipes = poolA
	rep.Corpus.PoolFoodCom = poolF
	rep.Corpus.Train = len(train)
	rep.Corpus.Test = len(test)
	rep.Corpus.Epochs = *epochs
	rep.Corpus.NoiseRate = *noise
	rep.Corpus.Seed = *seed
	rep.Tiers = map[string]*tierResult{
		"crf":   measure(gold, crfPredict, *minTime),
		"rules": measure(gold, rulesPredict, *minTime),
	}

	crf, rl := rep.Tiers["crf"], rep.Tiers["rules"]
	rep.Summary.F1Gap = fmt.Sprintf("crf %.4f vs rules %.4f (Δ %.4f micro-F1)",
		crf.MicroF1, rl.MicroF1, crf.MicroF1-rl.MicroF1)
	rep.Summary.SpeedRatio = fmt.Sprintf("rules %.0f vs crf %.0f phrases/sec (%.1fx)",
		rl.PhrasesPerSec, crf.PhrasesPerSec, rl.PhrasesPerSec/crf.PhrasesPerSec)
	rep.Summary.Interpreting = "the gap is the accuracy cost of a breaker-routed rules answer; " +
		"the ratio is why the rules tier can absorb a herd the CRF tier cannot"

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := stdout.Write(data); err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// measure scores one tier (accuracy from a single pass — both tiers
// are deterministic) and times repeated passes until minTime of wall
// clock has accumulated.
func measure(gold [][]ner.Span, predict func() [][]ner.Span, minTime time.Duration) *tierResult {
	pred := predict()
	er := metrics.EvaluateEntities(gold, pred)
	res := &tierResult{
		MicroF1:   er.Micro.F1,
		Precision: er.Micro.Precision,
		Recall:    er.Micro.Recall,
		PerTypeF1: map[string]float64{},
	}
	var types []string
	for typ := range er.PerType {
		types = append(types, typ)
	}
	sort.Strings(types)
	for _, typ := range types {
		res.PerTypeF1[typ] = er.PerType[typ].F1
	}

	start := time.Now()
	var elapsed time.Duration
	for elapsed < minTime {
		predict()
		res.MeasuredPasses++
		elapsed = time.Since(start)
	}
	phrases := res.MeasuredPasses * len(gold)
	res.PhrasesPerSec = float64(phrases) / elapsed.Seconds()
	res.NsPerPhrase = float64(elapsed.Nanoseconds()) / float64(phrases)
	return res
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
