package snapshot

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"recipemodel"
	"recipemodel/internal/core"
	"recipemodel/internal/goldmodel"
	"recipemodel/internal/relations"
)

// edgeModels are hand-built documents at the edges of the codec: nil
// and empty for each of the five slice kinds, empty strings, negative
// and extreme ints, and non-ASCII, NUL and invalid UTF-8 bytes (which
// encoding/json would have replaced with U+FFFD).
func edgeModels() []*core.RecipeModel {
	pot := []relations.Argument{{Text: "pot", Index: 2}}
	return []*core.RecipeModel{
		{}, // every string empty, every slice nil
		{Ingredients: []core.IngredientRecord{}, Instructions: []string{}, Events: []core.Event{}},
		{Events: []core.Event{
			{},
			{Relation: relations.Relation{Ingredients: []relations.Argument{}, Utensils: []relations.Argument{}}},
			{Relation: relations.Relation{Ingredients: pot}},
			{Relation: relations.Relation{Ingredients: []relations.Argument{}, Utensils: pot}},
		}},
		{Ingredients: []core.IngredientRecord{{}, {}}, Instructions: []string{"", ""}},
		{Events: []core.Event{{Step: -1, Relation: relations.Relation{
			Process: "-", ProcessIndex: math.MinInt,
			Ingredients: []relations.Argument{{Index: math.MaxInt}, {Text: "x", Index: -300}},
		}}}},
		{
			Title:   "Crème brûlée — 甘い 🍮",
			Cuisine: "\x00",
			Ingredients: []core.IngredientRecord{{
				Phrase: "a\x00b", Name: "\xff\xfe", State: "\xe2\x80", Quantity: "½", Unit: "µg",
				Temp: "200°C", DryFresh: "\x00", Size: strings.Repeat("large ", 40),
			}},
			Instructions: []string{"\x00\x00", strings.Repeat("Stir. ", 100)},
		},
	}
}

// buildAndLoad builds models as the first version of a fresh store
// and loads it back through another fresh store, which decodes every
// segment.
func buildAndLoad(t *testing.T, models []*core.RecipeModel) *Snapshot {
	t.Helper()
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	v, err := st.Build(models)
	if err != nil {
		t.Fatal(err)
	}
	if v != "v000001" {
		t.Fatalf("version = %q", v)
	}
	if cur, err := st.Current(); err != nil || cur != v {
		t.Fatalf("Current() = %q, %v", cur, err)
	}
	return loadCold(t, dir)
}

// requireModelsEqual fails on the first doc where got and want differ.
func requireModelsEqual(t *testing.T, got, want []*core.RecipeModel) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d docs, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("doc %d did not round-trip:\n got %#v\nwant %#v", i, got[i], want[i])
		}
	}
}

// TestBuildLoadRoundTrip: every field of every model survives Build
// and a cold load exactly, nil versus empty slices included.
func TestBuildLoadRoundTrip(t *testing.T) {
	edge := edgeModels()
	gold := goldmodel.Corpus(segRecords/2+1, 7)
	mixed := append(append([]*core.RecipeModel{}, edge...), gold...)
	cases := []struct {
		name   string
		models []*core.RecipeModel
	}{
		{"gold", goldmodel.Corpus(150, 7)},
		{"edge", edge},
		{"1 doc", edge[len(edge)-1:]},
		{"segRecords docs", mixed[:segRecords]},
		{"segRecords+1 docs", mixed[:segRecords+1]},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			requireModelsEqual(t, buildAndLoad(t, c.models).Models, c.models)
		})
	}
}

// TestBuildLoadRoundTripMined: models mined by the default pipeline
// round-trip exactly, and load equal to their encoding/json round
// trip. Mined text is sanitized to valid UTF-8, so the JSON codec's
// U+FFFD replacement never applies to it, and a corpus republished
// from JSONL loads exactly as the JSONL segments it replaces did.
func TestBuildLoadRoundTripMined(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the default pipeline")
	}
	p, err := recipemodel.NewPipeline(recipemodel.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mined := p.ModelRecipes(recipemodel.Inputs(recipemodel.SyntheticRecipes(200, 2)))
	loaded := buildAndLoad(t, mined).Models
	requireModelsEqual(t, loaded, mined)

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, m := range mined {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	var viaJSON []*core.RecipeModel
	for dec := json.NewDecoder(&buf); ; {
		var m core.RecipeModel
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		viaJSON = append(viaJSON, &m)
	}
	requireModelsEqual(t, loaded, viaJSON)
}

// TestBuildIsByteDeterministic: two builds of the same models write
// byte-identical segments, so their manifests carry equal digests.
func TestBuildIsByteDeterministic(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	models := append(edgeModels(), goldmodel.Corpus(segRecords/2+10, 7)...)
	var digests [2][]string
	for i := range digests {
		v, err := st.Build(models)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range readManifest(t, dir, v).Segments {
			digests[i] = append(digests[i], seg.SHA256)
		}
	}
	if len(digests[0]) != 2 || !reflect.DeepEqual(digests[0], digests[1]) {
		t.Fatalf("two builds of the same models: segment digests %v and %v", digests[0], digests[1])
	}
}

// TestSegmentLayout pins the bytes Build writes for two small
// documents, one field at a time.
func TestSegmentLayout(t *testing.T) {
	cases := []struct {
		name  string
		model *core.RecipeModel
		want  []byte
	}{
		{"zero model", &core.RecipeModel{}, []byte{
			1, 0, // table: one string, "" (0 bytes)
			1,    // one record
			0, 0, // Title, Cuisine: string 0
			0, 0, 0, // Ingredients, Instructions, Events: nil
		}},
		{"one event", &core.RecipeModel{
			Title: "ab", Cuisine: "ab", Instructions: []string{},
			Events: []core.Event{{Step: -1, Relation: relations.Relation{Process: "c", ProcessIndex: 1}}},
		}, []byte{
			2, 2, 1, 'a', 'b', 'c', // table: "ab", "c"
			1,    // one record
			0, 0, // Title, Cuisine: "ab"
			0,    // Ingredients: nil
			1,    // Instructions: empty
			2,    // Events: one
			1,    // Step: -1, zig-zag
			1,    // Process: "c"
			2,    // ProcessIndex: 1, zig-zag
			0, 0, // Ingredients, Utensils: nil
		}},
	}
	for _, c := range cases {
		_, seg, _ := builtVersion(t, []*core.RecipeModel{c.model})
		if !bytes.Equal(seg, c.want) {
			t.Errorf("%s: segment % x, want % x", c.name, seg, c.want)
		}
	}
}

// TestLoadRejectsFormatlessManifest: a version whose manifest records
// no segment format (every version written with JSONL segments) or an
// unknown one is refused with an error naming the manifest and the
// republish command.
func TestLoadRejectsFormatlessManifest(t *testing.T) {
	for _, format := range []string{"", "binary-v0"} {
		st, _ := OpenStore(t.TempDir())
		noSleep(st)
		v, err := st.Build(testModels(3))
		if err != nil {
			t.Fatal(err)
		}
		man := readManifest(t, st.Dir(), v)
		man.Format = format
		data, err := json.Marshal(man)
		if err != nil {
			t.Fatal(err)
		}
		manPath := filepath.Join(st.VersionDir(v), "MANIFEST.json")
		if err := os.WriteFile(manPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, lerr := st.Load(context.Background())
		if lerr == nil {
			t.Fatalf("format %q: loaded without error", format)
		}
		for _, want := range []string{manPath, "recipemine snapshot -store " + st.Dir() + " -from corpus.jsonl"} {
			if !strings.Contains(lerr.Error(), want) {
				t.Fatalf("format %q: error does not name %q: %v", format, want, lerr)
			}
		}
	}
}

// TestBuildRefusesNilDoc: a nil model has no encoding, so Build
// refuses it instead of inventing an empty document.
func TestBuildRefusesNilDoc(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	models := testModels(3)
	models[1] = nil
	if _, err := st.Build(models); err == nil || !strings.Contains(err.Error(), "nil doc 1") {
		t.Fatalf("nil doc: err = %v", err)
	}
}

// TestLoadRejectsOversizedSegment: a segment extended to a sparse
// terabyte is a named-file size error, cold or warm, decided from the
// file's size before anything is allocated for its bytes.
func TestLoadRejectsOversizedSegment(t *testing.T) {
	for _, warm := range []bool{false, true} {
		st, _ := OpenStore(t.TempDir())
		noSleep(st)
		v, err := st.Build(testModels(5))
		if err != nil {
			t.Fatal(err)
		}
		if warm {
			if _, err := st.Load(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		seg := firstSegment(t, st.Dir(), v)
		if err := os.Truncate(filepath.Join(st.VersionDir(v), seg), 1<<40); err != nil {
			t.Fatal(err)
		}
		_, lerr := st.Load(context.Background())
		if lerr == nil || !strings.Contains(lerr.Error(), seg) || !strings.Contains(lerr.Error(), "size 1099511627776 bytes, manifest expects") {
			t.Fatalf("warm=%v: oversized segment: err = %v", warm, lerr)
		}
	}
}

// TestLoadRejectsOversizedManifest: a manifest past the cap is refused
// without being read whole.
func TestLoadRejectsOversizedManifest(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	v, err := st.Build(testModels(2))
	if err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(st.VersionDir(v), "MANIFEST.json")
	if err := os.Truncate(manPath, 1<<40); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(context.Background()); err == nil || !strings.Contains(err.Error(), manPath) || !strings.Contains(err.Error(), "manifest cap") {
		t.Fatalf("oversized manifest: err = %v", err)
	}
}
