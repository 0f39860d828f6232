// Package recipemodel is a from-scratch Go reproduction of
// "A Named Entity Based Approach to Model Recipes" (Diwan, Batra,
// Bagler; ICDE 2020 Workshops, arXiv:2004.12184).
//
// The library models a cooking recipe as a uniform, computable
// structure (the paper's Fig 1): the ingredients section decomposes
// into records with seven attributes (name, processing state,
// quantity, unit, temperature, dry/fresh state, size — Table II), and
// the instructions section becomes a temporal chain of many-to-many
// cooking events (process × ingredients × utensils).
//
// Everything is implemented on the standard library alone: the
// linear-chain CRF standing in for the Stanford NER tagger, an
// averaged-perceptron POS tagger over the 36-tag Penn Treebank set, a
// WordNet-morphy-style lemmatizer, K-Means with the elbow criterion,
// PCA, a rule-driven dependency parser for imperative instructions,
// and a seeded generative grammar that synthesizes a RecipeDB-style
// corpus with gold annotations (the original 118k-recipe dataset is
// not redistributable).
//
// Quick start:
//
//	p, err := recipemodel.NewPipeline(recipemodel.DefaultOptions())
//	if err != nil { ... }
//	m := p.ModelRecipe("Tomato Tart", "French",
//	    []string{"1 sheet frozen puff pastry (thawed)", "2-3 medium tomatoes"},
//	    "Preheat the oven to 375 °F. Add the tomatoes to the skillet.")
//	fmt.Println(m.Ingredients[0].Name) // "puff pastry"
package recipemodel

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"

	"recipemodel/internal/core"
	"recipemodel/internal/corpus"
	"recipemodel/internal/depparse"
	"recipemodel/internal/mathx"
	"recipemodel/internal/ner"
	"recipemodel/internal/nutrition"
	"recipemodel/internal/persist"
	"recipemodel/internal/quarantine"
	"recipemodel/internal/recipedb"
	"recipemodel/internal/relations"
	"recipemodel/internal/similarity"
)

// Re-exported model types.
type (
	// RecipeModel is the paper's uniform recipe structure (Fig 1).
	RecipeModel = core.RecipeModel
	// IngredientRecord is one decomposed ingredient phrase (Table I).
	IngredientRecord = core.IngredientRecord
	// Event is one cooking event in the temporal chain.
	Event = core.Event
	// Relation is a many-to-many process tuple (Fig 5).
	Relation = relations.Relation
	// EntitySpan is a labeled token range produced by the NER layer.
	EntitySpan = ner.Span
	// DependencyTree is the parse of one instruction (Fig 3).
	DependencyTree = depparse.Tree
	// NutritionProfile is a nutrient total (application §IV).
	NutritionProfile = nutrition.Profile
	// SimilarityWeights controls the recipe-similarity facet mix.
	SimilarityWeights = similarity.Weights
	// RankedRecipe pairs a candidate index with its similarity score.
	RankedRecipe = similarity.Ranked
	// InstructionAnnotation bundles the instruction-stack output for
	// one step (batch form of AnnotateInstruction's triple return).
	InstructionAnnotation = core.InstructionAnnotation
	// RecipeInput is one raw recipe, the unit of work of the batch
	// mining engine.
	RecipeInput = core.RecipeInput
	// Rejection is one quarantined record from a partial-result batch
	// call: input index, truncated phrase echo, machine-readable code,
	// and human detail.
	Rejection = quarantine.Rejection
	// RejectionCode is the stable machine-readable cause taxonomy
	// carried by Rejection.Code and the dead-letter JSONL format.
	RejectionCode = quarantine.Code
)

// Options configures pipeline construction. The taggers are trained at
// construction time on the synthetic gold corpus; with a fixed Seed
// the result is fully deterministic.
type Options struct {
	// Seed drives corpus generation and training.
	Seed int64
	// TrainingPhrases is the number of gold ingredient phrases drawn
	// per source site.
	TrainingPhrases int
	// TrainingInstructions is the number of gold instruction steps
	// drawn per source site.
	TrainingInstructions int
	// Epochs for CRF training.
	Epochs int
	// Method selects the CRF trainer: "sgd" (default) or "perceptron".
	Method string
}

// DefaultOptions returns a configuration that trains an accurate
// pipeline in a few seconds.
func DefaultOptions() Options {
	return Options{
		Seed:                 1,
		TrainingPhrases:      2500,
		TrainingInstructions: 1200,
		Epochs:               6,
		Method:               "sgd",
	}
}

// Pipeline is a trained recipe-modeling pipeline. All components are
// read-only after training, so one Pipeline may serve any number of
// goroutines; the batch methods (AnnotateIngredients,
// AnnotateInstructions, ModelRecipes) fan out over an internal worker
// pool sized by SetWorkers.
type Pipeline struct {
	inner     *core.Pipeline
	estimator *nutrition.Estimator
	// workers bounds the batch-method pool; defaults to NumCPU.
	workers int
}

// SetWorkers bounds the goroutines the batch methods use (n <= 0
// resets to runtime.NumCPU()). Batch results are byte-identical at
// any worker count, so this knob trades only wall-clock for cores.
func (p *Pipeline) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	p.workers = n
}

// Workers reports the current batch worker bound.
func (p *Pipeline) Workers() int { return p.workers }

// NewPipeline trains the ingredient-section and instruction-section
// NER models on synthetic gold corpora from both source styles and
// wires the full stack (POS tagger, dependency parser, relation
// extractor, nutrition estimator).
func NewPipeline(opts Options) (*Pipeline, error) {
	if opts.TrainingPhrases <= 0 || opts.TrainingInstructions <= 0 {
		return nil, fmt.Errorf("recipemodel: training sizes must be positive, got %d/%d",
			opts.TrainingPhrases, opts.TrainingInstructions)
	}
	if opts.Epochs <= 0 {
		opts.Epochs = 6
	}
	half := opts.TrainingPhrases / 2
	gA := recipedb.NewGenerator(recipedb.SourceAllRecipes, opts.Seed+1)
	gF := recipedb.NewGenerator(recipedb.SourceFoodCom, opts.Seed+2)

	ingTrain := append(
		corpus.IngredientSentences(gA.UniquePhrases(opts.TrainingPhrases-half)),
		corpus.IngredientSentences(gF.UniquePhrases(half))...)
	insHalf := opts.TrainingInstructions / 2
	insTrain := append(
		corpus.InstructionSentences(gA.Instructions(opts.TrainingInstructions-insHalf)),
		corpus.InstructionSentences(gF.Instructions(insHalf))...)

	cfg := ner.TrainConfig{Epochs: opts.Epochs, Seed: opts.Seed + 3, Method: opts.Method}
	ingNER := ner.Train(ingTrain, ner.IngredientTypes,
		ner.NewIngredientExtractor(ner.DefaultFeatureOptions), cfg)
	insNER := ner.Train(insTrain, ner.InstructionTypes,
		ner.NewInstructionExtractor(ner.DefaultFeatureOptions), cfg)
	if err := ingNER.CompileFor(ner.TaskIngredient, ner.DefaultFeatureOptions); err != nil {
		return nil, fmt.Errorf("recipemodel: %w", err)
	}
	if err := insNER.CompileFor(ner.TaskInstruction, ner.DefaultFeatureOptions); err != nil {
		return nil, fmt.Errorf("recipemodel: %w", err)
	}

	return &Pipeline{
		inner:     core.NewPipeline(nil, ingNER, insNER, nil),
		estimator: nutrition.NewEstimator(),
		workers:   runtime.NumCPU(),
	}, nil
}

// ModelRecipe mines the full structure from a raw recipe: one string
// per ingredient line, and the instructions as free text (steps split
// on sentence boundaries).
func (p *Pipeline) ModelRecipe(title, cuisine string, ingredientLines []string, instructions string) *RecipeModel {
	return p.inner.ModelRecipe(title, cuisine, ingredientLines, instructions)
}

// AnnotateIngredient decomposes a single ingredient phrase into its
// attribute record.
func (p *Pipeline) AnnotateIngredient(phrase string) IngredientRecord {
	return p.inner.AnnotateIngredient(phrase)
}

// AnnotateInstruction runs the instruction stack over one step,
// returning the entity spans, the dependency parse and the extracted
// relations.
func (p *Pipeline) AnnotateInstruction(step string) ([]EntitySpan, *DependencyTree, []Relation) {
	return p.inner.AnnotateInstruction(step)
}

// AnnotateIngredients decomposes a batch of ingredient phrases
// concurrently (corpus-scale form of AnnotateIngredient; the paper
// annotates 11.5M phrases). Result i corresponds to phrases[i] and is
// byte-identical to the serial loop at any worker count.
func (p *Pipeline) AnnotateIngredients(phrases []string) []IngredientRecord {
	return p.inner.AnnotateIngredients(phrases, p.workers)
}

// AnnotateIngredientsContext is AnnotateIngredients with cooperative
// cancellation: when ctx is cancelled the pool stops dispatching new
// phrases, finishes the in-flight ones, drains its workers (no
// goroutine outlives the call), and returns the partial records with
// ctx.Err(). An uncancelled call returns a nil error and results
// byte-identical to AnnotateIngredients.
func (p *Pipeline) AnnotateIngredientsContext(ctx context.Context, phrases []string) ([]IngredientRecord, error) {
	return p.inner.AnnotateIngredientsContext(ctx, phrases, p.workers)
}

// AnnotateInstructions runs the instruction stack over a batch of
// steps concurrently.
func (p *Pipeline) AnnotateInstructions(steps []string) []InstructionAnnotation {
	return p.inner.AnnotateInstructions(steps, p.workers)
}

// AnnotateInstructionsContext is the cancellable form of
// AnnotateInstructions (same contract as AnnotateIngredientsContext).
func (p *Pipeline) AnnotateInstructionsContext(ctx context.Context, steps []string) ([]InstructionAnnotation, error) {
	return p.inner.AnnotateInstructionsContext(ctx, steps, p.workers)
}

// ModelRecipes mines a corpus of raw recipes concurrently, one recipe
// per pool slot (the paper's 40,000-recipe mining run). Result i
// corresponds to recipes[i].
func (p *Pipeline) ModelRecipes(recipes []RecipeInput) []*RecipeModel {
	return p.inner.ModelRecipes(recipes, p.workers)
}

// ModelRecipesContext is the cancellable form of ModelRecipes: on
// cancellation the mined prefix is returned with ctx.Err(),
// undispatched slots are nil, and no worker goroutine leaks.
func (p *Pipeline) ModelRecipesContext(ctx context.Context, recipes []RecipeInput) ([]*RecipeModel, error) {
	return p.inner.ModelRecipesContext(ctx, recipes, p.workers)
}

// AnnotateIngredientChecked is AnnotateIngredient with the typed
// rejection surfaced: poison input (invalid UTF-8 under a reject
// policy, over-cap length, nothing annotatable, a contained tagger
// panic) returns a quarantine error whose stable code callers can
// branch on; the record is then empty but for the echoed phrase.
func (p *Pipeline) AnnotateIngredientChecked(phrase string) (IngredientRecord, error) {
	return p.inner.AnnotateIngredientChecked(phrase)
}

// AnnotateIngredientsPartial decomposes a batch with record-level
// fault containment: record i is byte-identical to a clean
// AnnotateIngredient(phrases[i]), poison phrases come back as typed,
// index-ordered rejections instead of aborting the batch, and the
// error is non-nil only when ctx was cancelled.
func (p *Pipeline) AnnotateIngredientsPartial(ctx context.Context, phrases []string) ([]IngredientRecord, []Rejection, error) {
	return p.inner.AnnotateIngredientsPartial(ctx, phrases, p.workers)
}

// AnnotateInstructionsPartial is the containment-aware form of
// AnnotateInstructions (same contract as AnnotateIngredientsPartial).
func (p *Pipeline) AnnotateInstructionsPartial(ctx context.Context, steps []string) ([]InstructionAnnotation, []Rejection, error) {
	return p.inner.AnnotateInstructionsPartial(ctx, steps, p.workers)
}

// ModelRecipesPartial mines a corpus with record-level fault
// containment: a poison recipe yields a nil slot plus a typed
// rejection (echoing its title), and the surviving N-1 models are
// byte-identical to the same recipes in a clean run at any worker
// count.
func (p *Pipeline) ModelRecipesPartial(ctx context.Context, recipes []RecipeInput) ([]*RecipeModel, []Rejection, error) {
	return p.inner.ModelRecipesPartial(ctx, recipes, p.workers)
}

// ModelRecipeContext mines one recipe under a context, checking for
// cancellation between ingredient lines and instruction steps — the
// request-deadline form of ModelRecipe used by the HTTP server.
func (p *Pipeline) ModelRecipeContext(ctx context.Context, title, cuisine string, ingredientLines []string, instructions string) (*RecipeModel, error) {
	return p.inner.ModelRecipeContext(ctx, title, cuisine, ingredientLines, instructions)
}

// Inputs converts raw synthetic recipes to batch-mining inputs.
func Inputs(rs []SyntheticRecipe) []RecipeInput {
	out := make([]RecipeInput, len(rs))
	for i, r := range rs {
		out[i] = RecipeInput{
			Title:           r.Title,
			Cuisine:         r.Cuisine,
			IngredientLines: r.IngredientLines,
			Instructions:    r.Instructions,
		}
	}
	return out
}

// EstimateNutrition totals the nutrient profile of a modeled recipe
// (application §IV); resolved reports how many ingredients matched the
// embedded nutrient table.
func (p *Pipeline) EstimateNutrition(m *RecipeModel) (profile NutritionProfile, resolved int) {
	return p.estimator.EstimateRecipe(m)
}

// Similarity scores the structural similarity of two modeled recipes
// in [0, 1] (application §IV).
func Similarity(a, b *RecipeModel) float64 {
	return similarity.Score(a, b, similarity.DefaultWeights)
}

// MostSimilar ranks candidates by structural similarity to the query.
func MostSimilar(query *RecipeModel, candidates []*RecipeModel) []RankedRecipe {
	return similarity.MostSimilar(query, candidates, similarity.DefaultWeights)
}

// SimilarityCorpusWeights holds IDF weights learned from a mined
// corpus: sharing a rare ingredient says more than sharing salt.
type SimilarityCorpusWeights = similarity.CorpusWeights

// LearnSimilarityWeights computes IDF weights over a mined corpus and
// precomputes each model's similarity facets, so WeightedSimilarity
// between two of these models is cheap. The models must not be mutated
// afterwards: their scores would keep using the facets learned here.
// Other models can still be scored, at the cost of building their
// facets on every call.
func LearnSimilarityWeights(models []*RecipeModel) *SimilarityCorpusWeights {
	return similarity.LearnWeights(models)
}

// WeightedSimilarity scores a against b with the ingredient facet
// IDF-weighted by the corpus statistics.
func WeightedSimilarity(a, b *RecipeModel, w *SimilarityCorpusWeights) float64 {
	return similarity.WeightedScore(a, b, w, similarity.DefaultWeights)
}

// SyntheticRecipes generates n gold-annotated recipes from the
// synthetic RecipeDB grammar (half AllRecipes-style, half
// FOOD.com-style) — handy for demos and benchmarks.
func SyntheticRecipes(n int, seed int64) []SyntheticRecipe {
	gA := recipedb.NewGenerator(recipedb.SourceAllRecipes, seed)
	gF := recipedb.NewGenerator(recipedb.SourceFoodCom, seed+1)
	out := make([]SyntheticRecipe, 0, n)
	for i := 0; i < n; i++ {
		g := gA
		if i%2 == 1 {
			g = gF
		}
		r := g.Recipe()
		sr := SyntheticRecipe{Title: r.Title, Cuisine: r.Cuisine}
		for _, ing := range r.Ingredients {
			sr.IngredientLines = append(sr.IngredientLines, ing.Text)
		}
		for _, in := range r.Instructions {
			if sr.Instructions != "" {
				sr.Instructions += " "
			}
			sr.Instructions += in.Text
		}
		out = append(out, sr)
	}
	return out
}

// SyntheticRecipe is a raw (unannotated) recipe as a website would
// present it.
type SyntheticRecipe struct {
	Title           string
	Cuisine         string
	IngredientLines []string
	Instructions    string
}

// Save persists the pipeline's trained taggers to w; a pipeline
// restored with LoadPipeline produces byte-identical annotations.
func (p *Pipeline) Save(w io.Writer) error {
	return persist.SaveBundle(w, p.inner.IngredientNER, p.inner.InstructionNER, ner.DefaultFeatureOptions)
}

// LoadPipeline restores a pipeline persisted with Save.
func LoadPipeline(r io.Reader) (*Pipeline, error) {
	ing, ins, err := persist.LoadBundle(r)
	if err != nil {
		return nil, err
	}
	return &Pipeline{
		inner:     core.NewPipeline(nil, ing, ins, nil),
		estimator: nutrition.NewEstimator(),
		workers:   runtime.NumCPU(),
	}, nil
}

// SaveToStore persists the pipeline into the versioned model store at
// dir (creating the store when absent) and returns the new version
// name. The install is crash-safe: the bundle and its checksum
// manifest become durable before the store's CURRENT pointer swings,
// so a crash mid-save can never leave the store unloadable.
func (p *Pipeline) SaveToStore(dir string) (string, error) {
	st, err := persist.OpenStore(dir)
	if err != nil {
		return "", err
	}
	return st.Save(p.inner.IngredientNER, p.inner.InstructionNER, ner.DefaultFeatureOptions)
}

// LoadPipelineFromStore restores the CURRENT version from a versioned
// model store, verifying the bundle checksum before decoding, and
// returns the pipeline together with the version name it serves.
func LoadPipelineFromStore(dir string) (*Pipeline, string, error) {
	st, err := persist.OpenStore(dir)
	if err != nil {
		return nil, "", err
	}
	ing, ins, version, err := st.Load()
	if err != nil {
		return nil, version, err
	}
	return &Pipeline{
		inner:     core.NewPipeline(nil, ing, ins, nil),
		estimator: nutrition.NewEstimator(),
		workers:   runtime.NumCPU(),
	}, version, nil
}

// ClusterPhrases reproduces the paper's §II.D-E embedding step on
// arbitrary ingredient phrases: each phrase is pre-processed,
// POS-tagged, embedded as a 1×36 tag-frequency vector, and clustered
// with K-Means (k clusters). It returns the cluster assignment per
// phrase and the 2-D PCA projection of each phrase vector (the Fig 2
// view). len(phrases) must be at least k.
func ClusterPhrases(phrases []string, k int, seed int64) (assignment []int, projected [][2]float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	s, err := core.NewSampler(phrases, nil, k, rng)
	if err != nil {
		return nil, nil, err
	}
	pca := mathx.FitPCA(s.Vectors, 2)
	projected = make([][2]float64, len(phrases))
	for i, v := range s.Vectors {
		p := pca.Transform(v)
		projected[i] = [2]float64{p[0], p[1]}
	}
	return s.Result.Assignment, projected, nil
}
