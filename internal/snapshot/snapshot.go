// Package snapshot is the versioned corpus store: the crash-safe
// deployment form of a mined recipe corpus, the read-side twin of the
// model store in internal/persist. `recipemine mine` produces a JSONL
// corpus; `recipemine snapshot` packs it into an immutable, segmented,
// sha256-manifested snapshot version that the query service loads into
// memory shards and hot-swaps under traffic. Layout on disk:
//
//	<dir>/
//	  CURRENT                      ← version name, swapped by atomic rename
//	  snapshots/
//	    v000001/
//	      MANIFEST.json            ← segment format, docs, per-segment size/sha256
//	      seg-000000.bin           ← binary RecipeModel segments (codec.go)
//	      seg-000001.bin
//	    v000002/
//	      ...
//
// The install discipline is persist's, reused verbatim: segments and
// manifest are written atomically inside a hidden temp directory, the
// directory is renamed into place, and only then does CURRENT swing —
// a crash anywhere leaves CURRENT naming the previous, fully durable
// version. Loads verify each segment's size and sha256 against the
// manifest before that segment is decoded, so a torn or bit-flipped
// snapshot is a named-file, expected-vs-found-digest error, never a
// half corpus. Load attempts retry with resilience.Backoff (transient
// I/O), and LoadLatestGood falls back version by version when the
// current snapshot is rejected — the server keeps serving the newest
// corpus that checks out.
package snapshot

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"recipemodel/internal/checkpoint"
	"recipemodel/internal/core"
	"recipemodel/internal/faults"
	"recipemodel/internal/persist"
	"recipemodel/internal/resilience"
)

// FaultLoad fires at the top of every snapshot version load attempt —
// before any file is read. Tests arm it to simulate transient I/O
// failures (exercising the retry path) or a persistently unreadable
// version (exercising the fallback to the previous good snapshot).
const FaultLoad = "snapshot.load"

var _ = faults.MustRegister(FaultLoad)

// segRecords is how many recipe models one segment file holds; small
// enough that a torn tail costs one segment's re-read, large enough
// that a 100k-recipe corpus is a few dozen files, not thousands.
const segRecords = 2048

// Snapshot is one loaded corpus version: the models in their stable
// mined order. Document i of the corpus is Models[i] in every version
// of the truth — global doc ids are positions, and the query service's
// shard assignment (id mod shards) is derived from them, so any shard
// count serves the same ids.
//
// The Models slice is the snapshot's own, but the models it points to
// are shared: the next load through the same Store hands out the same
// pointers for every segment whose bytes did not change. Snapshot
// models are therefore read-only; nothing may mutate them. The models
// decoded from one segment also share memory with each other: one
// backing array holds them, and their strings are substrings of one
// string holding the segment's string table. Any live model therefore
// keeps its whole segment's models and strings alive.
type Snapshot struct {
	Version string
	Models  []*core.RecipeModel
}

// Store is a versioned, crash-safe corpus snapshot directory. It
// remembers, per segment position, the verified digest and decoded
// records of its newest successful load, and a later load reuses those
// records at every position whose bytes still hash to the same digest.
// Models are thus shared between consecutive loads of one Store (and
// with whoever still holds the earlier snapshot), which is safe only
// because snapshot models are never mutated. A Store keeps its newest
// load's models alive until its next successful load.
type Store struct {
	dir string
	// Backoff paces the per-version load retries; the zero value uses
	// the resilience defaults (3 attempts, 10ms base). Tests install a
	// no-op Sleep to keep retry drills clock-free.
	Backoff resilience.Backoff

	// mu guards memo, and is held only to read or swap the slice. A
	// published memo slice is never modified in place.
	mu   sync.Mutex
	memo []segmentMemo
}

// segmentMemo is what the newest successful load verified and decoded
// at one segment position.
type segmentMemo struct {
	sha256  string
	records []*core.RecipeModel
}

// OpenStore opens (creating if necessary) a snapshot store rooted at
// dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "snapshots"), 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

func (s *Store) snapshotsDir() string { return filepath.Join(s.dir, "snapshots") }

func (s *Store) versionDir(version string) string {
	return filepath.Join(s.snapshotsDir(), version)
}

// segmentEntry is one segment file's integrity record.
type segmentEntry struct {
	Name    string `json:"name"`
	Records int    `json:"records"`
	Size    int64  `json:"size"`
	SHA256  string `json:"sha256"`
}

// manifest is the per-version integrity record: the segment format,
// total docs, and every segment's size and digest. A loader trusts
// nothing it has not checked against this file.
type manifest struct {
	Version string `json:"version"`
	// Format names the segment codec. Versions written before the
	// binary codec have none: their segments are JSONL.
	Format   string         `json:"format"`
	Docs     int            `json:"docs"`
	Segments []segmentEntry `json:"segments"`
}

// Versions lists the installed versions in ascending order (temp
// directories from interrupted installs are excluded).
func (s *Store) Versions() ([]string, error) {
	entries, err := os.ReadDir(s.snapshotsDir())
	if err != nil {
		return nil, fmt.Errorf("snapshot: list versions: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "v") {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// nextVersion allocates the next sequential version name.
func (s *Store) nextVersion() (string, error) {
	versions, err := s.Versions()
	if err != nil {
		return "", err
	}
	n := 0
	for _, v := range versions {
		var i int
		if _, err := fmt.Sscanf(v, "v%06d", &i); err == nil && i > n {
			n = i
		}
	}
	return fmt.Sprintf("v%06d", n+1), nil
}

// SetCurrent atomically points CURRENT at an installed version — also
// the rollback primitive: point it back at a previous version.
func (s *Store) SetCurrent(version string) error {
	if _, err := os.Stat(s.versionDir(version)); err != nil {
		return fmt.Errorf("snapshot: set current: version %q not installed: %w", version, err)
	}
	if err := persist.WriteCurrentPointer(s.dir, version); err != nil {
		return fmt.Errorf("snapshot: set current %s: %w", version, err)
	}
	return nil
}

// Current reads the serving version from CURRENT.
func (s *Store) Current() (string, error) {
	version, err := persist.ReadCurrentPointer(s.dir)
	if err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	return version, nil
}

// Build installs the models as a new snapshot version and swaps
// CURRENT to it, returning the version name. Models are encoded in
// their given order (positions are the corpus's global doc ids) into
// fixed-size binary segments; the same models always produce the same
// bytes. The install is two-phase, so a crash at any point leaves
// CURRENT on the previous, fully durable version.
func (s *Store) Build(models []*core.RecipeModel) (version string, err error) {
	if len(models) == 0 {
		return "", fmt.Errorf("snapshot: refusing to build an empty snapshot")
	}
	for i, m := range models {
		if m == nil {
			return "", fmt.Errorf("snapshot: refusing to build a snapshot with nil doc %d", i)
		}
	}
	version, err = s.nextVersion()
	if err != nil {
		return "", err
	}
	tmpDir := filepath.Join(s.snapshotsDir(), ".install-"+version)
	// A previous interrupted install may have left the temp dir behind.
	if err := os.RemoveAll(tmpDir); err != nil {
		return "", fmt.Errorf("snapshot: install %s: %w", version, err)
	}
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return "", fmt.Errorf("snapshot: install %s: %w", version, err)
	}
	defer func() {
		if err != nil {
			os.RemoveAll(tmpDir)
		}
	}()

	man := manifest{Version: version, Format: segmentFormat, Docs: len(models)}
	for lo := 0; lo < len(models); lo += segRecords {
		hi := min(lo+segRecords, len(models))
		data := encodeSegment(models[lo:hi])
		name := fmt.Sprintf("seg-%06d.bin", len(man.Segments))
		sum := sha256.Sum256(data)
		if err := checkpoint.WriteFileAtomic(filepath.Join(tmpDir, name), data, 0o644); err != nil {
			return "", fmt.Errorf("snapshot: install %s: %w", version, err)
		}
		man.Segments = append(man.Segments, segmentEntry{
			Name:    name,
			Records: hi - lo,
			Size:    int64(len(data)),
			SHA256:  hex.EncodeToString(sum[:]),
		})
	}
	manData, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return "", fmt.Errorf("snapshot: install %s: %w", version, err)
	}
	if err := checkpoint.WriteFileAtomic(filepath.Join(tmpDir, "MANIFEST.json"), append(manData, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("snapshot: install %s: %w", version, err)
	}
	if err := os.Rename(tmpDir, s.versionDir(version)); err != nil {
		return "", fmt.Errorf("snapshot: install %s: %w", version, err)
	}
	if err := checkpoint.SyncDir(s.snapshotsDir()); err != nil {
		return "", fmt.Errorf("snapshot: install %s: %w", version, err)
	}
	if err := s.SetCurrent(version); err != nil {
		return version, err
	}
	return version, nil
}

// LoadVersion loads one installed version: the manifest is read first
// and must name this build's segment format. Then, segment by segment,
// the size is checked against the manifest before the file is read,
// the sha256 after, and only then are the segment's records decoded.
// Every error names the offending file; checksum failures carry both
// the expected and the found digest, and decode errors the record.
//
// Every check runs on every segment on every call. Only a segment that
// has passed them, and whose digest equals the one the store's newest
// successful load verified at the same position, skips the decode: its
// remembered records are reused. The memo is replaced only when the
// whole version loads.
func (s *Store) LoadVersion(version string) (*Snapshot, error) {
	if err := faults.Inject(FaultLoad); err != nil {
		return nil, fmt.Errorf("snapshot: load %s: %w", version, err)
	}
	verDir := s.versionDir(version)
	manPath := filepath.Join(verDir, "MANIFEST.json")
	manData, err := persist.ReadManifest(manPath)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(manData, &man); err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", manPath, err)
	}
	switch man.Format {
	case segmentFormat:
	case "":
		return nil, fmt.Errorf("snapshot: %s: no segment format recorded: this version holds JSONL segments, which this release no longer reads; republish it with: cat %s > corpus.jsonl && recipemine snapshot -store %s -from corpus.jsonl",
			manPath, filepath.Join(verDir, "seg-*.jsonl"), s.dir)
	default:
		return nil, fmt.Errorf("snapshot: %s: unknown segment format %q (this release reads %q); republish the mined corpus with: recipemine snapshot -store %s -from corpus.jsonl",
			manPath, man.Format, segmentFormat, s.dir)
	}
	// Build refuses empty corpora, so a manifest claiming zero (or
	// negative) docs can only be corruption.
	if man.Docs <= 0 {
		return nil, fmt.Errorf("snapshot: %s: implausible doc count %d", manPath, man.Docs)
	}
	s.mu.Lock()
	prev := s.memo
	s.mu.Unlock()
	memo := make([]segmentMemo, 0, len(man.Segments))
	snap := &Snapshot{Version: version}
	for i, seg := range man.Segments {
		// Segment names come from a file an attacker or a corruption may
		// have rewritten; confine them to the version directory.
		if seg.Name != filepath.Base(seg.Name) || seg.Name == "." || seg.Name == ".." {
			return nil, fmt.Errorf("snapshot: %s: invalid segment name %q", manPath, seg.Name)
		}
		segPath := filepath.Join(verDir, seg.Name)
		data, err := persist.ReadExact(segPath, seg.Size)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		sum := sha256.Sum256(data)
		got := hex.EncodeToString(sum[:])
		if got != seg.SHA256 {
			return nil, fmt.Errorf("snapshot: %s: checksum mismatch: manifest expects sha256 %s, file has %s", segPath, seg.SHA256, got)
		}
		// Reuse is keyed by position as well as digest, so two
		// byte-identical segments of one snapshot never share models.
		var records []*core.RecipeModel
		if i < len(prev) && prev[i].sha256 == got {
			records = prev[i].records
		} else if records, err = decodeSegment(data, seg.Records); err != nil {
			return nil, fmt.Errorf("snapshot: %s: %w", segPath, err)
		}
		if len(records) != seg.Records {
			return nil, fmt.Errorf("snapshot: %s: holds %d records, manifest expects %d", segPath, len(records), seg.Records)
		}
		memo = append(memo, segmentMemo{sha256: got, records: records})
		snap.Models = append(snap.Models, records...)
	}
	if len(snap.Models) != man.Docs {
		return nil, fmt.Errorf("snapshot: %s: segments hold %d docs, manifest expects %d", manPath, len(snap.Models), man.Docs)
	}
	s.mu.Lock()
	s.memo = memo
	s.mu.Unlock()
	return snap, nil
}

// loadVersionRetry is LoadVersion behind the store's backoff: a
// transient read failure (or an armed snapshot.load fault with a
// limit) is retried; a persistent one comes back as the last error.
func (s *Store) loadVersionRetry(ctx context.Context, version string) (*Snapshot, error) {
	var snap *Snapshot
	err := resilience.Retry(ctx, s.Backoff, func(context.Context) error {
		var lerr error
		snap, lerr = s.LoadVersion(version)
		return lerr
	})
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// Load opens the CURRENT version, verifying integrity before decode
// and retrying transient failures per the store's backoff. The
// returned models may be shared with this store's previous and next
// loads (see Store); callers must treat them as read-only.
func (s *Store) Load(ctx context.Context) (*Snapshot, error) {
	version, err := s.Current()
	if err != nil {
		return nil, err
	}
	return s.loadVersionRetry(ctx, version)
}

// LoadLatestGood loads the newest snapshot that passes integrity
// checks: CURRENT first, then earlier versions in descending order
// when CURRENT is torn or corrupt — the automatic-fallback form the
// server boots and reloads through, so one bad publish never takes
// the corpus offline. The rejected slice reports each version that
// failed (named files, expected-vs-found digests) for the caller to
// log; err is non-nil only when no version loads at all.
func (s *Store) LoadLatestGood(ctx context.Context) (snap *Snapshot, rejected []error, err error) {
	current, err := s.Current()
	if err != nil {
		return nil, nil, err
	}
	versions, err := s.Versions()
	if err != nil {
		return nil, nil, err
	}
	// CURRENT first, then everything newer-to-older, skipping CURRENT's
	// own slot in the walk.
	try := []string{current}
	for i := len(versions) - 1; i >= 0; i-- {
		if versions[i] != current {
			try = append(try, versions[i])
		}
	}
	for _, v := range try {
		snap, lerr := s.loadVersionRetry(ctx, v)
		if lerr == nil {
			return snap, rejected, nil
		}
		rejected = append(rejected, fmt.Errorf("version %s rejected: %w", v, lerr))
	}
	return nil, rejected, fmt.Errorf("snapshot: no loadable version in %s (tried %d)", s.dir, len(try))
}
