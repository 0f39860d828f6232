// Package persist ships trained models and owns the versioned-store
// protocol both durable artifacts publish through. A pipeline is
// trained once and shipped as a bundle: the CRF weights travel as gob;
// feature extractors (closures) are reconstructed from a recorded task
// name and feature options on load. Bundles deploy through the
// versioned model store (store.go), which, like the corpus snapshot
// store in internal/snapshot, is a typed codec over the one version
// protocol in versions.go: version naming, staged install, the CURRENT
// pointer, and size-then-sha256 verification.
package persist

import (
	"encoding/gob"
	"fmt"
	"io"

	"recipemodel/internal/crf"
	"recipemodel/internal/ner"
)

// Task names a feature-extractor family that can be rebuilt on load.
type Task string

// The serializable tagger tasks.
const (
	TaskIngredient  Task = "ingredient"
	TaskInstruction Task = "instruction"
)

// savedCRF is the gob wire form of a CRF.
type savedCRF struct {
	Labels   []string
	Emit     map[string][]float64
	Trans    [][]float64
	TransEnd []float64
}

// savedTagger is the gob wire form of a NER tagger.
type savedTagger struct {
	Task    Task
	Options ner.FeatureOptions
	CRF     savedCRF
}

// savedBundle is the wire form of a full pipeline (both taggers).
type savedBundle struct {
	Version     int
	Ingredient  savedTagger
	Instruction savedTagger
}

// wireVersion guards against stale files.
const wireVersion = 1

func toSavedCRF(m *crf.Model) savedCRF {
	return savedCRF{
		Labels:   m.Labels,
		Emit:     m.Emit,
		Trans:    m.Trans,
		TransEnd: m.TransEnd,
	}
}

// validateCRF rejects wire forms whose weight tables do not match the
// label inventory. Gob decoding alone accepts any shapes; skipping
// this check would defer the failure to an index-out-of-range panic in
// the middle of Viterbi on the first prediction.
func validateCRF(s savedCRF) error {
	L := len(s.Labels)
	if L == 0 {
		return fmt.Errorf("persist: CRF has no labels")
	}
	// Trans carries one extra row: the virtual begin-of-sequence state.
	if len(s.Trans) != L+1 {
		return fmt.Errorf("persist: CRF has %d transition rows, want %d", len(s.Trans), L+1)
	}
	for i, row := range s.Trans {
		if len(row) != L {
			return fmt.Errorf("persist: transition row %d has %d weights, want %d", i, len(row), L)
		}
	}
	if len(s.TransEnd) != L {
		return fmt.Errorf("persist: CRF has %d end weights, want %d", len(s.TransEnd), L)
	}
	for f, w := range s.Emit {
		if len(w) != L {
			return fmt.Errorf("persist: feature %q has %d emission weights, want %d", f, len(w), L)
		}
	}
	return nil
}

func fromSavedCRF(s savedCRF) (*crf.Model, error) {
	if err := validateCRF(s); err != nil {
		return nil, err
	}
	m := crf.New(s.Labels)
	m.Emit = s.Emit
	m.Trans = s.Trans
	m.TransEnd = s.TransEnd
	return m, nil
}

// extractorFor rebuilds the feature extractor for a task.
func extractorFor(task Task, opts ner.FeatureOptions) (ner.Extractor, error) {
	switch task {
	case TaskIngredient:
		return ner.NewIngredientExtractor(opts), nil
	case TaskInstruction:
		return ner.NewInstructionExtractor(opts), nil
	default:
		return nil, fmt.Errorf("persist: unknown task %q", task)
	}
}

// compile installs the interned/packed fast path on a freshly loaded
// tagger. Compilation happens on load rather than in the wire format,
// so bundles saved by earlier versions stay format-compatible; the
// compile step's canary self-check guards against a recorded task or
// option set that no longer matches the extractor it names.
func compile(t *ner.Tagger, task Task, opts ner.FeatureOptions) (*ner.Tagger, error) {
	nt := ner.TaskIngredient
	if task == TaskInstruction {
		nt = ner.TaskInstruction
	}
	if err := t.CompileFor(nt, opts); err != nil {
		return nil, fmt.Errorf("persist: compile %s fast path: %w", task, err)
	}
	return t, nil
}

// SaveBundle writes an ingredient + instruction tagger pair.
func SaveBundle(w io.Writer, ingredient, instruction *ner.Tagger, opts ner.FeatureOptions) error {
	b := savedBundle{
		Version:     wireVersion,
		Ingredient:  savedTagger{Task: TaskIngredient, Options: opts, CRF: toSavedCRF(ingredient.Model)},
		Instruction: savedTagger{Task: TaskInstruction, Options: opts, CRF: toSavedCRF(instruction.Model)},
	}
	return gob.NewEncoder(w).Encode(b)
}

// LoadBundle reads an ingredient + instruction tagger pair.
func LoadBundle(r io.Reader) (ingredient, instruction *ner.Tagger, err error) {
	var b savedBundle
	if err := gob.NewDecoder(r).Decode(&b); err != nil {
		return nil, nil, fmt.Errorf("persist: decode bundle: %w", err)
	}
	if b.Version != wireVersion {
		return nil, nil, fmt.Errorf("persist: unsupported version %d", b.Version)
	}
	if ingredient, err = decodeTagger(b.Ingredient); err != nil {
		return nil, nil, fmt.Errorf("ingredient tagger: %w", err)
	}
	if instruction, err = decodeTagger(b.Instruction); err != nil {
		return nil, nil, fmt.Errorf("instruction tagger: %w", err)
	}
	return ingredient, instruction, nil
}

// decodeTagger rebuilds one tagger from its wire form: the extractor
// its task names, the validated CRF, and the compiled fast path.
func decodeTagger(s savedTagger) (*ner.Tagger, error) {
	ex, err := extractorFor(s.Task, s.Options)
	if err != nil {
		return nil, err
	}
	m, err := fromSavedCRF(s.CRF)
	if err != nil {
		return nil, err
	}
	return compile(ner.FromModel(m, ex), s.Task, s.Options)
}
