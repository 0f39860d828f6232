package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"recipemodel/internal/core"
	"recipemodel/internal/relations"
	"recipemodel/internal/snapshot"
)

// writeCorpusJSONL writes n hand-built RecipeModels in the exact wire
// form `recipemine mine -o` produces (one JSON object per line).
func writeCorpusJSONL(t *testing.T, path string, n int) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < n; i++ {
		m := core.RecipeModel{
			Title:   "corpus-recipe",
			Cuisine: "french",
			Ingredients: []core.IngredientRecord{
				{Phrase: "2 cups onion", Name: "onion", Quantity: "2", Unit: "cups"},
			},
			Instructions: []string{"Chop the onion."},
		}
		if err := enc.Encode(&m); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSubcommand publishes a mined corpus into a snapshot
// store and loads it back through the store's integrity checks.
func TestSnapshotSubcommand(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.jsonl")
	storeDir := filepath.Join(dir, "snapshots")
	writeCorpusJSONL(t, corpus, 7)

	var out bytes.Buffer
	if err := run([]string{"snapshot", "-store", storeDir, "-from", corpus}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "published snapshot v000001 (7 docs)") {
		t.Fatalf("output: %s", out.String())
	}
	st, err := snapshot.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := st.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != "v000001" || len(snap.Models) != 7 {
		t.Fatalf("loaded %q with %d docs", snap.Version, len(snap.Models))
	}
	if snap.Models[0].Ingredients[0].Name != "onion" {
		t.Fatalf("round-trip lost ingredient: %+v", snap.Models[0])
	}

	// A second publish becomes v000002 and CURRENT follows it.
	out.Reset()
	if err := run([]string{"snapshot", "-store", storeDir, "-from", corpus}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "v000002") {
		t.Fatalf("second publish output: %s", out.String())
	}
}

func TestSnapshotSubcommandValidation(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"snapshot"}, strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Fatal("missing flags accepted")
	}
	corpus := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(corpus, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"snapshot", "-store", filepath.Join(dir, "s"), "-from", corpus}, strings.NewReader(""), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "empty snapshot") {
		t.Fatalf("empty corpus: err = %v", err)
	}
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"snapshot", "-store", filepath.Join(dir, "s2"), "-from", bad}, strings.NewReader(""), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "decode record 0") {
		t.Fatalf("bad corpus: err = %v", err)
	}
}

// writeJSONLStore writes models as version v000001 of a snapshot store
// in the layout used before binary segments: JSONL segments of at most
// perSegment records, and a manifest that records no segment format.
func writeJSONLStore(t *testing.T, storeDir string, models []*core.RecipeModel, perSegment int) {
	t.Helper()
	verDir := filepath.Join(storeDir, "snapshots", "v000001")
	if err := os.MkdirAll(verDir, 0o755); err != nil {
		t.Fatal(err)
	}
	type segmentEntry struct {
		Name    string `json:"name"`
		Records int    `json:"records"`
		Size    int64  `json:"size"`
		SHA256  string `json:"sha256"`
	}
	man := struct {
		Version  string         `json:"version"`
		Docs     int            `json:"docs"`
		Segments []segmentEntry `json:"segments"`
	}{Version: "v000001", Docs: len(models)}
	for lo := 0; lo < len(models); lo += perSegment {
		hi := min(lo+perSegment, len(models))
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, m := range models[lo:hi] {
			if err := enc.Encode(m); err != nil {
				t.Fatal(err)
			}
		}
		name := fmt.Sprintf("seg-%06d.jsonl", len(man.Segments))
		if err := os.WriteFile(filepath.Join(verDir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		man.Segments = append(man.Segments, segmentEntry{name, hi - lo, int64(buf.Len()), hex.EncodeToString(sum[:])})
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(verDir, "MANIFEST.json"), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetCurrent("v000001"); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRepublishMigratesJSONLStore: a store whose version holds
// JSONL segments is refused with an error naming its manifest and the
// republish command, and running that command (concatenate the
// segments, publish them with `recipemine snapshot -from`) installs a
// version that loads exactly as encoding/json decodes the same lines.
func TestSnapshotRepublishMigratesJSONLStore(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	pan := []relations.Argument{{Text: "pan", Index: 4}}
	models := []*core.RecipeModel{
		{Title: "Onion soup", Cuisine: "french",
			Ingredients:  []core.IngredientRecord{{Phrase: "2 cups chopped onion", Name: "onion", State: "chopped", Quantity: "2", Unit: "cups"}},
			Instructions: []string{"Chop the onion.", "Fry it in a pan."},
			Events: []core.Event{
				{Step: 0, Relation: relations.Relation{Process: "chop", ProcessIndex: 0, Ingredients: []relations.Argument{{Text: "onion", Index: 2}}}},
				{Step: 1, Relation: relations.Relation{Process: "fry", ProcessIndex: 0, Utensils: pan}},
			}},
		{},
		{Ingredients: []core.IngredientRecord{}, Instructions: []string{}, Events: []core.Event{}},
		{Title: "Crème brûlée \xff", Cuisine: "\x00", Events: []core.Event{{Step: -2, Relation: relations.Relation{Ingredients: []relations.Argument{}}}}},
		{Title: "Dal", Cuisine: "indian", Instructions: []string{""}},
	}
	writeJSONLStore(t, storeDir, models, 3)
	verDir := filepath.Join(storeDir, "snapshots", "v000001")

	st, err := snapshot.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.LoadVersion("v000001")
	if err == nil {
		t.Fatal("a JSONL version loaded")
	}
	republish := "cat " + filepath.Join(verDir, "seg-*.jsonl") + " > corpus.jsonl && recipemine snapshot -store " + storeDir + " -from corpus.jsonl"
	for _, want := range []string{filepath.Join(verDir, "MANIFEST.json"), republish} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("rejection does not name %q: %v", want, err)
		}
	}

	// The republish command, with the shell's sorted glob expansion.
	segs, err := filepath.Glob(filepath.Join(verDir, "seg-*.jsonl"))
	if err != nil || len(segs) != 2 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	var corpus []byte
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, data...)
	}
	corpusPath := filepath.Join(dir, "corpus.jsonl")
	if err := os.WriteFile(corpusPath, corpus, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"snapshot", "-store", storeDir, "-from", corpusPath}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "published snapshot v000002 (5 docs)") {
		t.Fatalf("output: %s", out.String())
	}

	var want []*core.RecipeModel
	for dec := json.NewDecoder(bytes.NewReader(corpus)); ; {
		var m core.RecipeModel
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		want = append(want, &m)
	}
	snap, rejected, err := st.LoadLatestGood(context.Background())
	if err != nil || len(rejected) != 0 {
		t.Fatalf("after republish: %v, rejected %v", err, rejected)
	}
	if snap.Version != "v000002" || !reflect.DeepEqual(snap.Models, want) {
		t.Fatalf("republished %s does not load as the JSONL lines decode", snap.Version)
	}
}
