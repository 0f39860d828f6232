// Package ner provides named-entity recognition over recipe text: the
// IO tagging scheme the taggers train on (one type per token, as in
// the paper's annotated data) and the BIO codec kept for interchange,
// feature extractors for the ingredients section (7 entity types,
// Table II of the paper) and the instructions section (processes,
// utensils, ingredients, §III.A), and a trainable tagger wrapping the
// linear-chain CRF.
package ner

import (
	"sort"

	"recipemodel/internal/crf"
)

// Ingredient-section entity types (Table II).
const (
	Name     = "NAME"     // name of ingredient: salt, pepper
	State    = "STATE"    // processing state: ground, thawed
	Unit     = "UNIT"     // measuring unit: gram, cup
	Quantity = "QUANTITY" // quantity: 1, 1 1/2, 2-4
	Size     = "SIZE"     // portion size: small, large
	Temp     = "TEMP"     // temperature: hot, frozen
	DryFresh = "DF"       // dry/fresh state: dry, fresh
)

// Instruction-section entity types (§III.A).
const (
	Process    = "PROCESS" // cooking technique: boil, preheat
	Utensil    = "UTENSIL" // utensil: pan, oven
	Ingredient = "INGR"    // ingredient mention inside an instruction
)

// Outside is the non-entity label.
const Outside = "O"

// IngredientTypes is the entity inventory for the ingredients section.
var IngredientTypes = []string{Name, State, Unit, Quantity, Size, Temp, DryFresh}

// InstructionTypes is the entity inventory for the instructions
// section.
var InstructionTypes = []string{Process, Utensil, Ingredient}

// Span is a labeled token range [Start, End).
type Span struct {
	Start, End int
	Type       string
}

// Sentence is a labeled example: tokens plus gold entity spans.
type Sentence struct {
	Tokens []string
	Spans  []Span
}

// IOLabels returns the label inventory the taggers train on: O plus
// I-X per type, in deterministic order. IO marks no span boundary, so
// it needs one label per type where BIO needs two; the CRF's decode
// cost grows with the label count per feature and with its square per
// Viterbi step.
func IOLabels(types []string) []string {
	out := []string{Outside}
	for _, t := range types {
		out = append(out, "I-"+t)
	}
	return out
}

// IsIOLabel reports whether l belongs to an IO label inventory: O, or
// I-X with a non-empty type X.
func IsIOLabel(l string) bool {
	return l == Outside || (len(l) > 2 && l[:2] == "I-")
}

// SpansToBIO encodes entity spans as per-token BIO tags for a sentence
// of n tokens. Overlapping spans are resolved in favor of the earlier,
// longer span.
func SpansToBIO(n int, spans []Span) []string {
	return encodeSpans(n, spans, "B-")
}

// SpansToIO encodes entity spans as per-token IO tags: I-X on every
// token of a span of type X, O elsewhere, with SpansToBIO's overlap
// resolution. Two spans of one type that touch become one run of I-X,
// which BIOToSpans decodes as a single span: IO cannot separate them.
func SpansToIO(n int, spans []Span) []string {
	return encodeSpans(n, spans, "I-")
}

// encodeSpans writes first+X on the first token of each kept span of
// type X and I-X on the rest.
func encodeSpans(n int, spans []Span, first string) []string {
	tags := make([]string, n)
	for i := range tags {
		tags[i] = Outside
	}
	ordered := append([]Span(nil), spans...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Start != ordered[j].Start {
			return ordered[i].Start < ordered[j].Start
		}
		return ordered[i].End > ordered[j].End
	})
	for _, s := range ordered {
		if s.Start < 0 || s.End > n || s.Start >= s.End {
			continue
		}
		free := true
		for i := s.Start; i < s.End; i++ {
			if tags[i] != Outside {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		tags[s.Start] = first + s.Type
		for i := s.Start + 1; i < s.End; i++ {
			tags[i] = "I-" + s.Type
		}
	}
	return tags
}

// BIOToSpans decodes BIO tags back into spans. Malformed I-X openings
// (an I without a preceding B of the same type) are treated as B-X,
// the conventional repair; the same rule decodes IO tags, where every
// run of one type is a span.
func BIOToSpans(tags []string) []Span {
	var spans []Span
	var cur *Span
	flush := func(end int) {
		if cur != nil {
			cur.End = end
			spans = append(spans, *cur)
			cur = nil
		}
	}
	for i, tag := range tags {
		switch {
		case tag == Outside || tag == "":
			flush(i)
		case len(tag) > 2 && tag[:2] == "B-":
			flush(i)
			cur = &Span{Start: i, Type: tag[2:]}
		case len(tag) > 2 && tag[:2] == "I-":
			typ := tag[2:]
			if cur == nil || cur.Type != typ {
				flush(i)
				cur = &Span{Start: i, Type: typ}
			}
		default:
			flush(i)
		}
	}
	flush(len(tags))
	return spans
}

// Extractor computes the feature strings for position i of tokens.
type Extractor func(tokens []string, i int) []string

// Tagger couples a trained CRF with its feature extractor and label
// scheme. CompileFor installs a compiled fast path (see compiled.go)
// that Predict/PredictTags route through when present; the two paths
// produce byte-identical output.
type Tagger struct {
	Model    *crf.Model
	Extract  Extractor
	labels   []string
	compiled *compiled
}

// TrainConfig re-exports the CRF training knobs.
type TrainConfig = crf.TrainConfig

// Train fits a tagger for the given entity types on labeled sentences,
// over the IO label inventory (IOLabels, SpansToIO).
func Train(sents []Sentence, types []string, extract Extractor, cfg TrainConfig) *Tagger {
	labels := IOLabels(types)
	model := crf.New(labels)
	data := make([]crf.Sequence, 0, len(sents))
	for _, s := range sents {
		if len(s.Tokens) == 0 {
			continue
		}
		tags := SpansToIO(len(s.Tokens), s.Spans)
		seq := crf.Sequence{
			Features: extractAll(extract, s.Tokens),
			Labels:   make([]int, len(s.Tokens)),
		}
		for i, tag := range tags {
			seq.Labels[i] = model.LabelID(tag)
		}
		data = append(data, seq)
	}
	model.Train(data, cfg)
	return &Tagger{Model: model, Extract: extract, labels: labels}
}

func extractAll(extract Extractor, tokens []string) [][]string {
	out := make([][]string, len(tokens))
	for i := range tokens {
		out[i] = extract(tokens, i)
	}
	return out
}

// FromModel wraps an existing CRF and extractor as a tagger (used
// when loading persisted models).
func FromModel(model *crf.Model, extract Extractor) *Tagger {
	return &Tagger{Model: model, Extract: extract, labels: model.Labels}
}

// PredictTags returns the label per token: O or I-X for a tagger
// trained by Train.
func (t *Tagger) PredictTags(tokens []string) []string {
	if len(tokens) == 0 {
		return nil
	}
	if t.compiled != nil {
		return t.compiled.predictTags(tokens)
	}
	return t.Model.DecodeLabels(extractAll(t.Extract, tokens))
}

// Predict returns the entity spans for the tokens.
func (t *Tagger) Predict(tokens []string) []Span {
	if t.compiled != nil {
		return t.compiled.appendPredict(nil, tokens)
	}
	return BIOToSpans(t.PredictTags(tokens))
}

// AppendPredict appends the predicted entity spans to spans and
// returns the extended slice. On a compiled tagger this is the
// zero-allocation form of Predict (no heap allocation once spans has
// capacity); otherwise it falls back to the legacy path.
func (t *Tagger) AppendPredict(spans []Span, tokens []string) []Span {
	if t.compiled != nil {
		return t.compiled.appendPredict(spans, tokens)
	}
	return append(spans, BIOToSpans(t.PredictTags(tokens))...)
}

// Labels returns the tagger's label inventory: IOLabels of its entity
// types for a tagger trained by Train.
func (t *Tagger) Labels() []string { return t.labels }
