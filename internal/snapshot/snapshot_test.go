package snapshot

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"recipemodel/internal/core"
	"recipemodel/internal/faults"
	"recipemodel/internal/persist"
	"recipemodel/internal/relations"
	"recipemodel/internal/resilience"
)

// testModels builds n distinct, structurally varied recipe models
// without training anything.
func testModels(n int) []*core.RecipeModel {
	names := []string{"onion", "garlic", "tomato", "saffron", "butter", "flour"}
	procs := []string{"chop", "fry", "boil", "bake"}
	out := make([]*core.RecipeModel, n)
	for i := range out {
		out[i] = &core.RecipeModel{
			Title:   "recipe-" + strings.Repeat("x", i%3) + names[i%len(names)],
			Cuisine: []string{"french", "indian", "thai"}[i%3],
			Ingredients: []core.IngredientRecord{
				{Phrase: "2 cups " + names[i%len(names)], Name: names[i%len(names)], Quantity: "2", Unit: "cups"},
				{Phrase: "1 tsp " + names[(i+1)%len(names)], Name: names[(i+1)%len(names)], Quantity: "1", Unit: "tsp", State: "chopped"},
			},
			Instructions: []string{"Step one.", "Step two."},
			Events: []core.Event{
				{Step: 0, Relation: relations.Relation{Process: procs[i%len(procs)]}},
				{Step: 1, Relation: relations.Relation{Process: procs[(i+1)%len(procs)]}},
			},
		}
	}
	return out
}

// noSleep keeps retry drills clock-free.
func noSleep(s *Store) { s.Backoff = resilience.Backoff{Sleep: func(time.Duration) {}} }

// readManifest parses version's MANIFEST.json in the store at dir.
func readManifest(tb testing.TB, dir, version string) manifest {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "snapshots", version, "MANIFEST.json"))
	if err != nil {
		tb.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		tb.Fatal(err)
	}
	return man
}

// firstSegment returns the file name of version's first segment, as
// the version's MANIFEST.json in the store at dir records it.
func firstSegment(tb testing.TB, dir, version string) string {
	tb.Helper()
	man := readManifest(tb, dir, version)
	if len(man.Segments) == 0 {
		tb.Fatalf("%s lists no segments", version)
	}
	return man.Segments[0].Name
}

func TestBuildSegments(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	// Spill past one segment boundary so the multi-segment path runs.
	n := segRecords + 3
	v, err := st.Build(testModels(n))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(st.VersionDir(v))
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") {
			segs++
		}
	}
	if segs != 2 {
		t.Fatalf("%d docs produced %d segments, want 2", n, segs)
	}
	snap, err := st.Load(context.Background())
	if err != nil || len(snap.Models) != n {
		t.Fatalf("reload: %d docs, err %v", len(snap.Models), err)
	}
}

func TestBuildRefusesEmpty(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	if _, err := st.Build(nil); err == nil {
		t.Fatal("empty snapshot built without error")
	}
}

func TestVersionsSequence(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	models := testModels(3)
	for i := 0; i < 3; i++ {
		if _, err := st.Build(models); err != nil {
			t.Fatal(err)
		}
	}
	vs, err := st.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || vs[2] != "v000003" {
		t.Fatalf("versions = %v", vs)
	}
	if cur, _ := st.Current(); cur != "v000003" {
		t.Fatalf("CURRENT = %q after three builds", cur)
	}
}

// TestLoadRejectsCorruptSegment pins the integrity error contract: a
// flipped byte is a named-file error carrying both digests. The warm
// case flips a segment the same store has already loaded, so the
// segment's records sit in the store's memo: the reload must still
// re-hash the bytes and refuse them.
func TestLoadRejectsCorruptSegment(t *testing.T) {
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
		segPath := filepath.Join(st.VersionDir(v), seg)
		data, err := os.ReadFile(segPath)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(segPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, lerr := st.Load(context.Background())
		if lerr == nil {
			t.Fatalf("warm=%v: corrupt segment loaded without error", warm)
		}
		msg := lerr.Error()
		if !strings.Contains(msg, seg) {
			t.Fatalf("warm=%v: error does not name the file: %v", warm, lerr)
		}
		if !strings.Contains(msg, "manifest expects sha256") {
			t.Fatalf("warm=%v: error does not carry expected-vs-found digests: %v", warm, lerr)
		}
	}
}

// TestLoadRejectsTornSegment: a truncated (torn-write) segment is a
// size mismatch naming the file, whether or not the store has loaded
// the intact segment before.
func TestLoadRejectsTornSegment(t *testing.T) {
	for _, warm := range []bool{false, true} {
		st, _ := OpenStore(t.TempDir())
		noSleep(st)
		v, _ := st.Build(testModels(5))
		if warm {
			if _, err := st.Load(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		seg := firstSegment(t, st.Dir(), v)
		segPath := filepath.Join(st.VersionDir(v), seg)
		data, _ := os.ReadFile(segPath)
		if err := os.WriteFile(segPath, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		_, lerr := st.Load(context.Background())
		if lerr == nil || !strings.Contains(lerr.Error(), seg) || !strings.Contains(lerr.Error(), "manifest expects") {
			t.Fatalf("warm=%v: torn segment: err = %v", warm, lerr)
		}
	}
}

// loadCold loads the CURRENT version of the store at dir through a
// fresh Store, whose empty memo forces every segment to be decoded.
func loadCold(t *testing.T, dir string) *Snapshot {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := st.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestWarmLoadEqualsCold: a load that reuses remembered segments
// returns exactly what a fresh store decodes, and reuses models at
// exactly the segment positions whose bytes are unchanged.
func TestWarmLoadEqualsCold(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	noSleep(st)
	changedDoc := testModels(2*segRecords + 5)
	changedDoc[7].Title = "a changed title"
	steps := []struct {
		name   string
		models []*core.RecipeModel
		// reused[p] says whether segment position p keeps the previous
		// load's models.
		reused []bool
	}{
		{"first load", testModels(segRecords + 3), []bool{false, false}},
		{"same version", nil, []bool{true, true}},
		{"append-only republish", testModels(2*segRecords + 5), []bool{true, false, false}},
		{"doc changed in segment 0", changedDoc, []bool{false, true, true}},
	}
	var prev *Snapshot
	for _, step := range steps {
		if step.models != nil {
			if _, err := st.Build(step.models); err != nil {
				t.Fatal(err)
			}
		}
		warm, err := st.Load(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if cold := loadCold(t, dir); !reflect.DeepEqual(warm, cold) {
			t.Fatalf("%s: warm load differs from a cold load", step.name)
		}
		if segs := (len(warm.Models) + segRecords - 1) / segRecords; segs != len(step.reused) {
			t.Fatalf("%s: %d docs fill %d segments, want %d", step.name, len(warm.Models), segs, len(step.reused))
		}
		for i, m := range warm.Models {
			p := i / segRecords
			shared := prev != nil && i < len(prev.Models) && m == prev.Models[i]
			if shared != step.reused[p] {
				t.Fatalf("%s: doc %d (segment %d) shares the previous load's model: %v, want %v", step.name, i, p, shared, step.reused[p])
			}
		}
		prev = warm
	}
}

// TestIdenticalSegmentsDoNotShareModels: reuse is keyed by segment
// position, so two byte-identical segments of one snapshot decode to
// distinct models, cold and warm alike.
func TestIdenticalSegmentsDoNotShareModels(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	half := testModels(segRecords)
	if _, err := st.Build(append(half, half...)); err != nil {
		t.Fatal(err)
	}
	cold, err := st.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := st.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < segRecords; i++ {
		for _, snap := range []*Snapshot{cold, warm} {
			if snap.Models[i] == snap.Models[i+segRecords] {
				t.Fatalf("docs %d and %d share one model", i, i+segRecords)
			}
		}
		if warm.Models[i] != cold.Models[i] || warm.Models[i+segRecords] != cold.Models[i+segRecords] {
			t.Fatalf("warm load did not reuse doc %d's segment", i)
		}
	}
}

func TestLoadRejectsMissingManifest(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	v, _ := st.Build(testModels(3))
	if err := os.Remove(filepath.Join(st.VersionDir(v), "MANIFEST.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(context.Background()); err == nil {
		t.Fatal("missing manifest loaded without error")
	}
}

func TestLoadRejectsEscapingSegmentName(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	v, _ := st.Build(testModels(3))
	manPath := filepath.Join(st.VersionDir(v), "MANIFEST.json")
	man, _ := os.ReadFile(manPath)
	evil := strings.Replace(string(man), firstSegment(t, st.Dir(), v), "../../../etc/passwd", 1)
	if err := os.WriteFile(manPath, []byte(evil), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := st.Load(context.Background())
	if err == nil || !strings.Contains(err.Error(), "invalid segment name") {
		t.Fatalf("escaping segment name: err = %v", err)
	}
}

// TestLoadRetriesTransientFailures: an armed snapshot.load fault with
// a firing limit models a transient I/O failure; the store's backoff
// retries through it without a single real sleep.
func TestLoadRetriesTransientFailures(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	st.Backoff = resilience.Backoff{Attempts: 3, Sleep: func(time.Duration) {}}
	if _, err := st.Build(testModels(4)); err != nil {
		t.Fatal(err)
	}
	defer faults.Enable(FaultLoad, faults.Fault{Err: errors.New("transient read error"), Limit: 2})()
	snap, err := st.Load(context.Background())
	if err != nil {
		t.Fatalf("load did not retry through transient failures: %v", err)
	}
	if len(snap.Models) != 4 {
		t.Fatalf("loaded %d docs", len(snap.Models))
	}
	if got := faults.Hits(FaultLoad); got != 3 {
		t.Fatalf("load attempts = %d, want 3 (two failures + one success)", got)
	}
}

// TestLoadExhaustsRetries: a persistent failure comes back joined with
// the injected cause after the attempt budget.
func TestLoadExhaustsRetries(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	st.Backoff = resilience.Backoff{Attempts: 2, Sleep: func(time.Duration) {}}
	if _, err := st.Build(testModels(2)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	defer faults.Enable(FaultLoad, faults.Fault{Err: boom})()
	if _, err := st.Load(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected cause", err)
	}
	if got := faults.Hits(FaultLoad); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
}

// TestLoadLatestGoodFallsBack is the rollback acceptance check: when
// CURRENT names a corrupt snapshot, the store serves the newest
// version that checks out and reports why the bad one was rejected.
func TestLoadLatestGoodFallsBack(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	if _, err := st.Build(testModels(6)); err != nil { // v000001, good
		t.Fatal(err)
	}
	v2, err := st.Build(testModels(9)) // v000002, about to be torn
	if err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(st.VersionDir(v2), firstSegment(t, st.Dir(), v2))
	data, _ := os.ReadFile(segPath)
	if err := os.WriteFile(segPath, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	snap, rejected, err := st.LoadLatestGood(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != "v000001" || len(snap.Models) != 6 {
		t.Fatalf("fell back to %q with %d docs, want v000001 with 6", snap.Version, len(snap.Models))
	}
	if len(rejected) != 1 || !strings.Contains(rejected[0].Error(), v2) {
		t.Fatalf("rejected = %v, want one entry naming %s", rejected, v2)
	}
}

// TestLoadLatestGoodAllBad: with every version corrupt the error says
// so instead of inventing a corpus.
func TestLoadLatestGoodAllBad(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	v, _ := st.Build(testModels(3))
	if err := os.Remove(filepath.Join(st.VersionDir(v), firstSegment(t, st.Dir(), v))); err != nil {
		t.Fatal(err)
	}
	_, rejected, err := st.LoadLatestGood(context.Background())
	if err == nil {
		t.Fatal("no loadable version, yet no error")
	}
	if len(rejected) != 1 {
		t.Fatalf("rejected = %v", rejected)
	}
}

// TestRollbackViaSetCurrent: the rollback primitive is pointing
// CURRENT back at an older version.
func TestRollbackViaSetCurrent(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	v1, _ := st.Build(testModels(2))
	if _, err := st.Build(testModels(4)); err != nil {
		t.Fatal(err)
	}
	if err := st.SetCurrent(v1); err != nil {
		t.Fatal(err)
	}
	snap, err := st.Load(context.Background())
	if err != nil || snap.Version != v1 || len(snap.Models) != 2 {
		t.Fatalf("rollback load: %v %q %d", err, snap.Version, len(snap.Models))
	}
	if err := st.SetCurrent("v999999"); err == nil {
		t.Fatal("SetCurrent accepted an uninstalled version")
	}
}

// TestBuildCrashBeforeCurrentSwap: a crash injected between a
// version's install and the CURRENT swap fails Build with the injected
// error and leaves the store serving the previous version; the next
// Build publishes.
func TestBuildCrashBeforeCurrentSwap(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	if _, err := st.Build(testModels(2)); err != nil {
		t.Fatal(err)
	}

	errCrash := errors.New("simulated crash")
	disarm := faults.Enable(persist.FaultInstall, faults.Fault{Err: errCrash})
	_, err := st.Build(testModels(4))
	disarm()
	if !errors.Is(err, errCrash) {
		t.Fatalf("build under fault = %v, want injected crash", err)
	}

	snap, err := st.Load(context.Background())
	if err != nil {
		t.Fatalf("store unloadable after crashed install: %v", err)
	}
	if snap.Version != "v000001" || len(snap.Models) != 2 {
		t.Fatalf("after crashed install: serving %q with %d docs, want v000001 with 2", snap.Version, len(snap.Models))
	}

	v3, err := st.Build(testModels(3))
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := st.Load(context.Background()); err != nil || snap.Version != v3 || len(snap.Models) != 3 {
		t.Fatalf("after retry: %v, want %s with 3 docs", err, v3)
	}
}

// TestInterruptedInstallLeavesNoVersion: a temp install directory left
// by a crash is invisible to Versions and to loaders.
func TestInterruptedInstallLeavesNoVersion(t *testing.T) {
	st, _ := OpenStore(t.TempDir())
	noSleep(st)
	if _, err := st.Build(testModels(2)); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-install: the hidden temp directory exists
	// but was never renamed into place.
	if err := os.MkdirAll(filepath.Join(st.Dir(), "snapshots", ".install-v000002"), 0o755); err != nil {
		t.Fatal(err)
	}
	vs, err := st.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("versions = %v, temp install dir leaked in", vs)
	}
	// The next build reclaims the orphaned temp dir and installs cleanly.
	v, err := st.Build(testModels(3))
	if err != nil || v != "v000002" {
		t.Fatalf("rebuild over orphan: %q %v", v, err)
	}
}

// BenchmarkLoad times a three-segment load through a fresh store
// (cold: every segment decoded) and through a store that has already
// loaded the same version (warm: every segment read and hashed, none
// decoded).
func BenchmarkLoad(b *testing.B) {
	dir := b.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Build(testModels(2*segRecords + 5)); err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fresh, err := OpenStore(dir)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fresh.Load(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		if _, err := st.Load(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Load(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
