package snapshot

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"recipemodel/internal/core"
)

// builtVersion builds models into a fresh store and returns the
// version's manifest, its first segment's bytes and that segment's
// name.
func builtVersion(tb testing.TB, models []*core.RecipeModel) (manData, segData []byte, segName string) {
	tb.Helper()
	st, err := OpenStore(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	v, err := st.Build(models)
	if err != nil {
		tb.Fatal(err)
	}
	manData, err = os.ReadFile(filepath.Join(st.VersionDir(v), "MANIFEST.json"))
	if err != nil {
		tb.Fatal(err)
	}
	segName = firstSegment(tb, st.Dir(), v)
	segData, err = os.ReadFile(filepath.Join(st.VersionDir(v), segName))
	if err != nil {
		tb.Fatal(err)
	}
	return manData, segData, segName
}

// buildSeedVersion installs one real snapshot of five docs and returns
// its manifest, first-segment bytes and segment name — the honest
// starting points the fuzzers mutate from.
func buildSeedVersion(tb testing.TB) (manData, segData []byte, segName string) {
	tb.Helper()
	return builtVersion(tb, testModels(5))
}

// hostileSegment is a segment whose bytes break one rule of the codec,
// with the record count a manifest vouching for it claims.
type hostileSegment struct {
	name    string
	seg     []byte
	records int
	// want is part of the error the load must fail with.
	want string
}

// hostileSegments derives one segment per class of codec violation
// from segments Build wrote: the five-doc seed, and the zero model's
// segment, whose bytes TestSegmentLayout pins as
// {1, 0, 1, 0, 0, 0, 0, 0}: a one-string table holding "", one
// record, Title and Cuisine string 0, three nil slices.
func hostileSegments(tb testing.TB) []hostileSegment {
	tb.Helper()
	_, seed, _ := buildSeedVersion(tb)
	_, zero, _ := builtVersion(tb, []*core.RecipeModel{{}})
	patch := func(b []byte, i int, v byte) []byte {
		out := bytes.Clone(b)
		out[i] = v
		return out
	}
	var jsonl bytes.Buffer
	enc := json.NewEncoder(&jsonl)
	for _, m := range testModels(5) {
		if err := enc.Encode(m); err != nil {
			tb.Fatal(err)
		}
	}
	return []hostileSegment{
		// The seed's last byte is the last event's nil Utensils prefix; a
		// continuation byte in its place leaves a varint unfinished.
		{"truncated varint", patch(seed, len(seed)-1, 0x80), 5, "record 4: truncated varint"},
		{"string index past the table", patch(zero, 3, 1), 1, "record 0: string index 1 outside the 1-string table"},
		{"string count past the bytes left", patch(zero, 0, 0x7f), 1, "127 strings cannot fit"},
		{"record count past the bytes left", patch(zero, 2, 0x7f), 0x7f, "127 records cannot fit"},
		{"list count past the bytes left", patch(zero, 5, 0x7f), 1, "record 0: 126 ingredients cannot fit"},
		{"record count differs from the manifest", seed, 4, "holds 5 records, manifest expects 4"},
		{"trailing bytes", append(bytes.Clone(seed), 0), 5, "1 trailing bytes"},
		{"JSONL segment under a binary manifest", jsonl.Bytes(), 5, ""},
	}
}

// manifestFor is a binary-format manifest for one version holding one
// segment, name, that vouches for seg's size and sha256 and claims
// records records.
func manifestFor(tb testing.TB, version, name string, seg []byte, records int) []byte {
	tb.Helper()
	sum := sha256.Sum256(seg)
	// A non-positive record count still reaches the decoder: only the
	// doc-count check after it fails.
	man, err := json.Marshal(manifest{
		Version: version,
		Format:  segmentFormat,
		Docs:    max(records, 1),
		Segments: []segmentEntry{{
			Name:    name,
			Records: records,
			Size:    int64(len(seg)),
			SHA256:  hex.EncodeToString(sum[:]),
		}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return man
}

// writeFiles installs a version's manifest and one segment by hand.
func writeFiles(tb testing.TB, dir, version string, man []byte, segName string, seg []byte) {
	tb.Helper()
	verDir := filepath.Join(dir, "snapshots", version)
	if err := os.MkdirAll(verDir, 0o755); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(verDir, "MANIFEST.json"), man, 0o644); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(verDir, segName), seg, 0o644); err != nil {
		tb.Fatal(err)
	}
}

// withFormat is a hand-written manifest carrying this build's segment
// format, so that it reaches the checks after the format check.
func withFormat(fields string) []byte {
	return []byte(fmt.Sprintf(`{"format":%q,%s}`, segmentFormat, fields))
}

// allocatedBytes reports how many heap bytes one call of f allocates.
// The heap counters are process-wide, so f runs three times on a
// single P and the least count is kept: allocations by other
// goroutines, such as the fuzzing engine's, only ever add to a count.
func allocatedBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// maxDecodeAlloc bounds what decoding a segment of n bytes may
// allocate, whatever the bytes: a constant multiple of the segment's
// size, plus room for an error message.
func maxDecodeAlloc(n int) uint64 { return 32*uint64(n) + 4096 }

// FuzzLoadSnapshot pins the loader's survival contract: whatever bytes
// sit where the manifest and segment should be — torn, transposed,
// hostile, or empty — LoadVersion returns a usable snapshot or an
// error, never a panic, and never a snapshot inconsistent with the
// manifest it trusted.
func FuzzLoadSnapshot(f *testing.F) {
	manData, segData, segName := buildSeedVersion(f)
	f.Add(manData, segData)                                           // the valid pair
	f.Add(manData, segData[:len(segData)/2])                          // torn segment
	f.Add(manData[:len(manData)/2], segData)                          // torn manifest
	f.Add(segData, manData)                                           // transposed
	f.Add([]byte("{}"), []byte{})                                     // empty manifest object
	f.Add(withFormat(`"docs":-1`), []byte{0})                         // negative docs
	f.Add(withFormat(`"docs":1,"segments":[{"name":".."}]`), segData) // escaping name
	f.Add([]byte{}, []byte{})
	f.Add(bytes.Replace(manData, []byte(segmentFormat), nil, 1), segData)                 // no format: a JSONL-era manifest
	f.Add(bytes.Replace(manData, []byte(segmentFormat), []byte("binary-v9"), 1), segData) // unknown format
	for _, h := range hostileSegments(f) {
		f.Add(manifestFor(f, "v000001", segName, h.seg, h.records), h.seg)
	}
	f.Fuzz(func(t *testing.T, man, seg []byte) {
		dir := t.TempDir()
		writeFiles(t, dir, "v000001", man, segName, seg)
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

// FuzzLoadSegment fuzzes the decoder and the reuse path behind it.
// FuzzLoadSnapshot's mutations almost never survive the sha256 check,
// so here every input is wrapped in a manifest that vouches for its
// bytes, with a fuzzed record count. Each input is loaded twice:
// through a fresh store, which decodes it, and through a store that
// has already loaded the pristine seed, which reuses the seed's
// records when the bytes are the seed's. Both loads must fail, or both
// must return equal models. Decoding the input directly must not
// allocate more than a constant multiple of its size.
func FuzzLoadSegment(f *testing.F) {
	_, segData, segName := buildSeedVersion(f)
	_, zero, _ := builtVersion(f, []*core.RecipeModel{{}})
	f.Add(segData, 5)                   // the pristine seed
	f.Add(segData, 4)                   // seed, miscounted
	f.Add(segData[:len(segData)/2], 2)  // torn mid-record
	f.Add(bytes.Repeat(segData, 2), 10) // seed twice over
	f.Add(zero, 1)                      // the zero model
	f.Add(zero[:len(zero)-1], 1)        // zero model, last list prefix torn off
	f.Add(segData, -1)                  // negative record count
	f.Add([]byte{}, 0)                  // empty segment
	for _, h := range hostileSegments(f) {
		f.Add(h.seg, h.records)
	}
	f.Fuzz(func(t *testing.T, seg []byte, records int) {
		dir := t.TempDir()
		writeFiles(t, dir, "v000001", manifestFor(t, "v000001", segName, segData, 5), segName, segData)
		writeFiles(t, dir, "v000002", manifestFor(t, "v000002", segName, seg, records), segName, seg)

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
		if got := allocatedBytes(func() { decodeSegment(seg, records) }); got > maxDecodeAlloc(len(seg)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(seg), got)
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
	manData, segData, segName := buildSeedVersion(t)
	cases := map[string]struct{ man, seg []byte }{
		"torn segment":   {manData, segData[:len(segData)/2]},
		"torn manifest":  {manData[:len(manData)/2], segData},
		"transposed":     {segData, manData},
		"empty manifest": {[]byte("{}"), nil},
		"negative docs":  {withFormat(`"docs":-1`), []byte{0}},
		"escaping name":  {withFormat(`"docs":1,"segments":[{"name":"../CURRENT"}]`), segData},
		"no format":      {bytes.Replace(manData, []byte(segmentFormat), nil, 1), segData},
		"empty files":    {nil, nil},
	}
	for name, c := range cases {
		dir := t.TempDir()
		writeFiles(t, dir, "v000001", c.man, segName, c.seg)
		st, _ := OpenStore(dir)
		if _, err := st.LoadVersion("v000001"); err == nil && !bytes.Equal(c.man, manData) {
			t.Errorf("%s: corrupt version loaded without error", name)
		}
	}
	// Each codec violation, under a manifest that vouches for its
	// bytes, fails the load with an error naming the file (and the
	// record, where one is at fault), and decoding it allocates no more
	// than a constant multiple of its size.
	for _, h := range hostileSegments(t) {
		dir := t.TempDir()
		writeFiles(t, dir, "v000001", manifestFor(t, "v000001", segName, h.seg, h.records), segName, h.seg)
		st, _ := OpenStore(dir)
		_, err := st.LoadVersion("v000001")
		if err == nil || !strings.Contains(err.Error(), segName) || !strings.Contains(err.Error(), h.want) {
			t.Errorf("%s: err = %v, want one naming %s and %q", h.name, err, segName, h.want)
		}
		if got := allocatedBytes(func() { decodeSegment(h.seg, h.records) }); got > maxDecodeAlloc(len(h.seg)) {
			t.Errorf("%s: decoding %d bytes allocated %d bytes", h.name, len(h.seg), got)
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
