package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"recipemodel/internal/faults"
	"recipemodel/internal/ner"
)

// tinyTaggers builds a loadable tagger pair without training, from the
// consistent tinyCRF wire form shared with the fuzz tests.
func tinyTaggers(tb testing.TB) (*ner.Tagger, *ner.Tagger) {
	tb.Helper()
	ing, ins, err := LoadBundle(bytes.NewReader(tinyBundleBytes(tb)))
	if err != nil {
		tb.Fatal(err)
	}
	return ing, ins
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ing, ins := tinyTaggers(t)
	v, err := st.Save(ing, ins, ner.DefaultFeatureOptions)
	if err != nil {
		t.Fatal(err)
	}
	if v != "v000001" {
		t.Fatalf("first version = %q", v)
	}
	gotIng, gotIns, gotV, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if gotV != v {
		t.Fatalf("loaded version %q, want %q", gotV, v)
	}
	if got := gotIng.PredictTags([]string{"onion"}); len(got) != 1 {
		t.Fatalf("ingredient predict: %v", got)
	}
	if got := gotIns.PredictTags([]string{"boil"}); len(got) != 1 {
		t.Fatalf("instruction predict: %v", got)
	}
}

func TestStoreVersionsAdvance(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ing, ins := tinyTaggers(t)
	for i, want := range []string{"v000001", "v000002", "v000003"} {
		v, err := st.Save(ing, ins, ner.DefaultFeatureOptions)
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Fatalf("save %d: version %q, want %q", i, v, want)
		}
	}
	versions, err := st.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 3 {
		t.Fatalf("versions = %v", versions)
	}
	cur, err := st.Current()
	if err != nil {
		t.Fatal(err)
	}
	if cur != "v000003" {
		t.Fatalf("current = %q", cur)
	}
}

// TestStoreCrashBeforeCurrentSwap is the acceptance criterion: a crash
// injected between the bundle write and the CURRENT swap must leave the
// store loadable at the previous version — no torn state reachable.
func TestStoreCrashBeforeCurrentSwap(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ing, ins := tinyTaggers(t)
	if _, err := st.Save(ing, ins, ner.DefaultFeatureOptions); err != nil {
		t.Fatal(err)
	}

	errCrash := errors.New("simulated crash")
	disarm := faults.Enable(FaultInstall, faults.Fault{Err: errCrash})
	_, err = st.Save(ing, ins, ner.DefaultFeatureOptions)
	disarm()
	if !errors.Is(err, errCrash) {
		t.Fatalf("save under fault = %v, want injected crash", err)
	}

	// CURRENT still names v1; loading serves the previous version.
	_, _, v, err := st.Load()
	if err != nil {
		t.Fatalf("store unloadable after crashed install: %v", err)
	}
	if v != "v000001" {
		t.Fatalf("current after crashed install = %q, want v000001", v)
	}

	// A retried save self-heals: the next version installs and publishes.
	v3, err := st.Save(ing, ins, ner.DefaultFeatureOptions)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, cur, err := st.Load(); err != nil || cur != v3 {
		t.Fatalf("after retry: version %q err %v, want %q", cur, err, v3)
	}
}

// A rollback is just SetCurrent at an older version.
func TestStoreRollback(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ing, ins := tinyTaggers(t)
	v1, err := st.Save(ing, ins, ner.DefaultFeatureOptions)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(ing, ins, ner.DefaultFeatureOptions); err != nil {
		t.Fatal(err)
	}
	if err := st.SetCurrent(v1); err != nil {
		t.Fatal(err)
	}
	if _, _, cur, err := st.Load(); err != nil || cur != v1 {
		t.Fatalf("after rollback: version %q err %v, want %q", cur, err, v1)
	}
	if err := st.SetCurrent("v999999"); err == nil {
		t.Fatal("SetCurrent accepted an uninstalled version")
	}
}

// TestStoreDetectsCorruption: a flipped byte in the bundle must fail
// the checksum check with an error naming the file and both digests.
func TestStoreDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ing, ins := tinyTaggers(t)
	v, err := st.Save(ing, ins, ner.DefaultFeatureOptions)
	if err != nil {
		t.Fatal(err)
	}
	bundlePath := filepath.Join(dir, "bundles", v, "bundle.gob")
	data, err := os.ReadFile(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(bundlePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = st.Load()
	if err == nil {
		t.Fatal("corrupt bundle loaded without error")
	}
	msg := err.Error()
	if !strings.Contains(msg, bundlePath) || !strings.Contains(msg, "checksum mismatch") ||
		!strings.Contains(msg, "expects sha256") {
		t.Fatalf("corruption error lacks path/expected-vs-found: %v", err)
	}
}

// A truncated bundle fails the size check before any decode runs.
func TestStoreDetectsTruncation(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ing, ins := tinyTaggers(t)
	v, err := st.Save(ing, ins, ner.DefaultFeatureOptions)
	if err != nil {
		t.Fatal(err)
	}
	bundlePath := filepath.Join(dir, "bundles", v, "bundle.gob")
	data, err := os.ReadFile(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bundlePath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = st.Load()
	if err == nil || !strings.Contains(err.Error(), "manifest expects") {
		t.Fatalf("truncated bundle: %v", err)
	}
}

// TestStoreRejectsOversizedBundle: a bundle extended to a sparse
// terabyte is a named-file size error, on a store that has never
// loaded and on one that has, decided from the file's size before
// anything is allocated for its bytes.
func TestStoreRejectsOversizedBundle(t *testing.T) {
	for _, warm := range []bool{false, true} {
		dir := t.TempDir()
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		ing, ins := tinyTaggers(t)
		v, err := st.Save(ing, ins, ner.DefaultFeatureOptions)
		if err != nil {
			t.Fatal(err)
		}
		if warm {
			if _, _, _, err := st.Load(); err != nil {
				t.Fatal(err)
			}
		}
		bundlePath := filepath.Join(dir, "bundles", v, "bundle.gob")
		if err := os.Truncate(bundlePath, 1<<40); err != nil {
			t.Fatal(err)
		}
		_, _, _, err = st.Load()
		if err == nil || !strings.Contains(err.Error(), bundlePath) || !strings.Contains(err.Error(), "size 1099511627776 bytes, manifest expects") {
			t.Fatalf("warm=%v: oversized bundle: err = %v", warm, err)
		}
	}
}

// TestStoreRejectsOversizedManifest: a manifest past the cap is
// refused without being read whole.
func TestStoreRejectsOversizedManifest(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ing, ins := tinyTaggers(t)
	v, err := st.Save(ing, ins, ner.DefaultFeatureOptions)
	if err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, "bundles", v, "MANIFEST.json")
	if err := os.Truncate(manPath, 1<<40); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := st.Load(); err == nil || !strings.Contains(err.Error(), manPath) || !strings.Contains(err.Error(), "manifest cap") {
		t.Fatalf("oversized manifest: err = %v", err)
	}
}

// TestStoreRejectsOversizedCurrent: a CURRENT pointer extended to a
// sparse terabyte is read through the manifest cap and refused with an
// error naming it, instead of being allocated whole.
func TestStoreRejectsOversizedCurrent(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ing, ins := tinyTaggers(t)
	if _, err := st.Save(ing, ins, ner.DefaultFeatureOptions); err != nil {
		t.Fatal(err)
	}
	curPath := filepath.Join(dir, "CURRENT")
	if err := os.Truncate(curPath, 1<<40); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := st.Load(); err == nil || !strings.Contains(err.Error(), curPath) || !strings.Contains(err.Error(), "manifest cap") {
		t.Fatalf("oversized CURRENT: err = %v", err)
	}
}

// TestStoreRejectsEscapingCurrent: CURRENT must name one version
// directory. A pointer that is not a single path element is refused
// with an error naming CURRENT, even where it would resolve to an
// installed version.
func TestStoreRejectsEscapingCurrent(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ing, ins := tinyTaggers(t)
	v, err := st.Save(ing, ins, ner.DefaultFeatureOptions)
	if err != nil {
		t.Fatal(err)
	}
	curPath := filepath.Join(dir, "CURRENT")
	for _, evil := range []string{"../bundles/" + v, v + "/../" + v, filepath.Join(dir, "bundles", v), ".", ".."} {
		if err := os.WriteFile(curPath, []byte(evil+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := st.Load()
		if err == nil || !strings.Contains(err.Error(), curPath) || !strings.Contains(err.Error(), "invalid version name") {
			t.Fatalf("CURRENT = %q: err = %v", evil, err)
		}
	}
}

func TestStoreLoadEmpty(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := st.Load(); err == nil {
		t.Fatal("empty store loaded without error")
	}
}

// The tagger-level decode error must say which of the two taggers in a
// bundle is the corrupt one (the satellite error-message contract).
func TestLoadBundleErrorNamesTagger(t *testing.T) {
	bad := mutateBundle(t, func(b *savedBundle) { b.Instruction.CRF.TransEnd = []float64{1} })
	_, _, err := LoadBundle(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "instruction tagger") {
		t.Fatalf("error does not name the corrupt tagger: %v", err)
	}
	bad = mutateBundle(t, func(b *savedBundle) { b.Ingredient.CRF.Labels = nil })
	_, _, err = LoadBundle(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "ingredient tagger") {
		t.Fatalf("error does not name the corrupt tagger: %v", err)
	}
}
