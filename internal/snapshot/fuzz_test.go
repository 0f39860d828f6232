package snapshot

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// buildSeedVersion installs one real snapshot and returns its manifest
// and first-segment bytes — the honest starting points the fuzzer
// mutates from.
func buildSeedVersion(tb testing.TB) (manData, segData []byte) {
	tb.Helper()
	st, err := OpenStore(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	v, err := st.Build(testModels(5))
	if err != nil {
		tb.Fatal(err)
	}
	manData, err = os.ReadFile(filepath.Join(st.versionDir(v), "MANIFEST.json"))
	if err != nil {
		tb.Fatal(err)
	}
	segData, err = os.ReadFile(filepath.Join(st.versionDir(v), "seg-000000.jsonl"))
	if err != nil {
		tb.Fatal(err)
	}
	return manData, segData
}

// FuzzLoadSnapshot pins the loader's survival contract: whatever bytes
// sit where the manifest and segment should be — torn, transposed,
// hostile, or empty — LoadVersion returns a usable snapshot or an
// error, never a panic, and never a snapshot inconsistent with the
// manifest it trusted.
func FuzzLoadSnapshot(f *testing.F) {
	manData, segData := buildSeedVersion(f)
	f.Add(manData, segData)                                // the valid pair
	f.Add(manData, segData[:len(segData)/2])               // torn segment
	f.Add(manData[:len(manData)/2], segData)               // torn manifest
	f.Add(segData, manData)                                // transposed
	f.Add([]byte("{}"), []byte{})                          // empty manifest object
	f.Add([]byte(`{"docs":-1}`), []byte("null\n"))         // negative docs
	f.Add([]byte(`{"segments":[{"name":".."}]}`), segData) // escaping name
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, man, seg []byte) {
		dir := t.TempDir()
		verDir := filepath.Join(dir, "snapshots", "v000001")
		if err := os.MkdirAll(verDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(verDir, "MANIFEST.json"), man, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(verDir, "seg-000000.jsonl"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := st.LoadVersion("v000001")
		if err != nil {
			return
		}
		for i, m := range snap.Models {
			if m == nil {
				t.Fatalf("accepted snapshot holds nil model at doc %d", i)
			}
		}
	})
}

// writeVersion installs one single-segment version by hand, with a
// manifest whose size and sha256 match seg, so the load gets past the
// integrity checks to the decoder.
func writeVersion(tb testing.TB, dir, version string, seg []byte, records int) {
	tb.Helper()
	verDir := filepath.Join(dir, "snapshots", version)
	if err := os.MkdirAll(verDir, 0o755); err != nil {
		tb.Fatal(err)
	}
	sum := sha256.Sum256(seg)
	// A non-positive record count still reaches the decoder: only the
	// doc-count check after it fails.
	man, err := json.Marshal(manifest{
		Version: version,
		Docs:    max(records, 1),
		Segments: []segmentEntry{{
			Name:    "seg-000000.jsonl",
			Records: records,
			Size:    int64(len(seg)),
			SHA256:  hex.EncodeToString(sum[:]),
		}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(verDir, "MANIFEST.json"), man, 0o644); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(verDir, "seg-000000.jsonl"), seg, 0o644); err != nil {
		tb.Fatal(err)
	}
}

// FuzzLoadSegment fuzzes the decoder and the reuse path behind it.
// FuzzLoadSnapshot's mutations almost never survive the sha256 check,
// so here every input is wrapped in a manifest that vouches for its
// bytes, with a fuzzed record count. Each input is loaded twice:
// through a fresh store, which decodes it, and through a store that
// has already loaded the pristine seed, which reuses the seed's
// records when the bytes are the seed's. Both loads must fail, or both
// must return equal models.
func FuzzLoadSegment(f *testing.F) {
	_, segData := buildSeedVersion(f)
	f.Add(segData, 5)                   // the pristine seed
	f.Add(segData, 4)                   // seed, miscounted
	f.Add(segData[:len(segData)/2], 2)  // torn mid-record
	f.Add(bytes.Repeat(segData, 2), 10) // seed twice over
	f.Add([]byte("null\n"), 1)          // JSON null record
	f.Add([]byte("{}\n{}\n"), 2)        // empty records
	f.Add([]byte(`{"title":7}`), 1)     // wrong field type
	f.Add([]byte{}, 0)                  // empty segment
	f.Fuzz(func(t *testing.T, seg []byte, records int) {
		dir := t.TempDir()
		writeVersion(t, dir, "v000001", segData, 5)
		writeVersion(t, dir, "v000002", seg, records)

		fresh, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		cold, coldErr := fresh.LoadVersion("v000002")

		warmStore, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := warmStore.LoadVersion("v000001"); err != nil {
			t.Fatalf("pristine seed: %v", err)
		}
		warm, warmErr := warmStore.LoadVersion("v000002")

		if (coldErr == nil) != (warmErr == nil) {
			t.Fatalf("cold load err %v, warm load err %v", coldErr, warmErr)
		}
		if coldErr != nil {
			return
		}
		if !reflect.DeepEqual(cold.Models, warm.Models) {
			t.Fatal("warm load returned different models than a cold load")
		}
		for i, m := range cold.Models {
			if m == nil {
				t.Fatalf("accepted segment holds nil model at doc %d", i)
			}
		}
	})
}

// TestLoadVersionFuzzRegressions replays the fuzz corpus classes under
// plain `go test`, so the contract is exercised without -fuzz.
func TestLoadVersionFuzzRegressions(t *testing.T) {
	manData, segData := buildSeedVersion(t)
	cases := map[string]struct{ man, seg []byte }{
		"torn segment":   {manData, segData[:len(segData)/2]},
		"torn manifest":  {manData[:len(manData)/2], segData},
		"transposed":     {segData, manData},
		"empty manifest": {[]byte("{}"), nil},
		"negative docs":  {[]byte(`{"docs":-1}`), []byte("null\n")},
		"escaping name":  {[]byte(`{"segments":[{"name":"../CURRENT"}]}`), segData},
		"empty files":    {nil, nil},
	}
	for name, c := range cases {
		dir := t.TempDir()
		verDir := filepath.Join(dir, "snapshots", "v000001")
		if err := os.MkdirAll(verDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(verDir, "MANIFEST.json"), c.man, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(verDir, "seg-000000.jsonl"), c.seg, 0o644); err != nil {
			t.Fatal(err)
		}
		st, _ := OpenStore(dir)
		if _, err := st.LoadVersion("v000001"); err == nil && !bytes.Equal(c.man, manData) {
			t.Errorf("%s: corrupt version loaded without error", name)
		}
	}
}

// TestLoadVersionValidSeed keeps the fuzzer's honest seed honest: the
// unmutated pair must load.
func TestLoadVersionValidSeed(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Build(testModels(5)); err != nil {
		t.Fatal(err)
	}
	snap, err := st.Load(context.Background())
	if err != nil || len(snap.Models) != 5 {
		t.Fatalf("valid seed: %v, %d docs", err, len(snap.Models))
	}
}
