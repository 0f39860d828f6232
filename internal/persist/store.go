// Versioned model store: the crash-safe deployment form of a trained
// bundle. Layout on disk:
//
//	<dir>/
//	  CURRENT                      ← version name, swapped by atomic rename
//	  bundles/
//	    v000001/
//	      bundle.gob               ← gob bundle (SaveBundle wire form)
//	      MANIFEST.json            ← size + sha256 of bundle.gob
//	    v000002/
//	      ...
//
// Publishing a version is a two-phase install: the bundle and its
// manifest are written and fsync'd inside a hidden temp directory,
// the temp directory is renamed to bundles/<version> (atomic), and
// only then is CURRENT swapped — also via atomic rename — to point at
// it. A crash anywhere in the sequence leaves CURRENT pointing at the
// previous, fully durable version; a half-written install is an
// orphaned directory that a later Save overwrites, never a version
// CURRENT can name. Loads verify the manifest checksum before
// decoding, so silent corruption is a named error, not a bad model.

package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"recipemodel/internal/checkpoint"
	"recipemodel/internal/faults"
	"recipemodel/internal/ner"
)

// FaultInstall fires after a version directory is durable but before
// CURRENT swings to it — the exact window a crash must not be able to
// corrupt. Tests arm it to prove the store stays loadable at the
// previous version.
const FaultInstall = "persist.install"

var _ = faults.MustRegister(FaultInstall)

// Store is a versioned, crash-safe bundle directory.
type Store struct {
	dir string
}

// OpenStore opens (creating if necessary) a versioned store rooted at
// dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "bundles"), 0o755); err != nil {
		return nil, fmt.Errorf("persist: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

func (s *Store) bundlesDir() string { return filepath.Join(s.dir, "bundles") }

func (s *Store) versionDir(version string) string {
	return filepath.Join(s.bundlesDir(), version)
}

// bundleManifest is the integrity record written next to each bundle.
type bundleManifest struct {
	Version string `json:"version"`
	Size    int64  `json:"size"`
	SHA256  string `json:"sha256"`
}

// Versions lists the installed versions in ascending order (temp
// directories from interrupted installs are excluded).
func (s *Store) Versions() ([]string, error) {
	entries, err := os.ReadDir(s.bundlesDir())
	if err != nil {
		return nil, fmt.Errorf("persist: list versions: %w", err)
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

// Save installs a new version containing the tagger pair and swaps
// CURRENT to it, returning the version name. The install is crash-safe:
// until the final CURRENT rename commits, a loader sees the previous
// version.
func (s *Store) Save(ingredient, instruction *ner.Tagger, opts ner.FeatureOptions) (version string, err error) {
	version, err = s.nextVersion()
	if err != nil {
		return "", err
	}
	tmpDir := filepath.Join(s.bundlesDir(), ".install-"+version)
	// A previous interrupted install may have left the temp dir behind.
	if err := os.RemoveAll(tmpDir); err != nil {
		return "", fmt.Errorf("persist: install %s: %w", version, err)
	}
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return "", fmt.Errorf("persist: install %s: %w", version, err)
	}
	defer func() {
		if err != nil {
			os.RemoveAll(tmpDir)
		}
	}()

	// Encode once, hash the exact bytes that hit the disk.
	var buf bytes.Buffer
	if err := SaveBundle(&buf, ingredient, instruction, opts); err != nil {
		return "", fmt.Errorf("persist: install %s: %w", version, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	bundlePath := filepath.Join(tmpDir, "bundle.gob")
	if err := checkpoint.WriteFileAtomic(bundlePath, buf.Bytes(), 0o644); err != nil {
		return "", fmt.Errorf("persist: install %s: %w", version, err)
	}
	man, err := json.Marshal(bundleManifest{
		Version: version,
		Size:    int64(buf.Len()),
		SHA256:  hex.EncodeToString(sum[:]),
	})
	if err != nil {
		return "", fmt.Errorf("persist: install %s: %w", version, err)
	}
	if err := checkpoint.WriteFileAtomic(filepath.Join(tmpDir, "MANIFEST.json"), append(man, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("persist: install %s: %w", version, err)
	}
	if err := os.Rename(tmpDir, s.versionDir(version)); err != nil {
		return "", fmt.Errorf("persist: install %s: %w", version, err)
	}
	if err := checkpoint.SyncDir(s.bundlesDir()); err != nil {
		return "", fmt.Errorf("persist: install %s: %w", version, err)
	}
	// The version is durable; the swap below publishes it. A crash in
	// this window (the armed fault simulates one) must leave CURRENT on
	// the previous version.
	if err := faults.Inject(FaultInstall); err != nil {
		return version, fmt.Errorf("persist: install %s: %w", version, err)
	}
	if err := s.SetCurrent(version); err != nil {
		return version, err
	}
	return version, nil
}

// SetCurrent atomically points CURRENT at an installed version —
// also the rollback primitive: point it back at a previous version.
func (s *Store) SetCurrent(version string) error {
	if _, err := os.Stat(s.versionDir(version)); err != nil {
		return fmt.Errorf("persist: set current: version %q not installed: %w", version, err)
	}
	if err := WriteCurrentPointer(s.dir, version); err != nil {
		return fmt.Errorf("persist: set current %s: %w", version, err)
	}
	return nil
}

// Current reads the serving version from CURRENT.
func (s *Store) Current() (string, error) {
	version, err := ReadCurrentPointer(s.dir)
	if err != nil {
		return "", fmt.Errorf("persist: %w", err)
	}
	return version, nil
}

// Load opens the CURRENT version, verifying integrity before decode.
func (s *Store) Load() (ingredient, instruction *ner.Tagger, version string, err error) {
	version, err = s.Current()
	if err != nil {
		return nil, nil, "", err
	}
	ingredient, instruction, err = s.LoadVersion(version)
	return ingredient, instruction, version, err
}

// LoadVersion loads one installed version: the manifest is read first,
// the bundle's size is checked against it before the bundle is read,
// its sha256 after, and only then is the gob decoded. Every error
// names the offending file; checksum failures carry both the expected
// and the found digest.
func (s *Store) LoadVersion(version string) (ingredient, instruction *ner.Tagger, err error) {
	verDir := s.versionDir(version)
	manPath := filepath.Join(verDir, "MANIFEST.json")
	manData, err := ReadManifest(manPath)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	var man bundleManifest
	if err := json.Unmarshal(manData, &man); err != nil {
		return nil, nil, fmt.Errorf("persist: %s: %w", manPath, err)
	}
	bundlePath := filepath.Join(verDir, "bundle.gob")
	data, err := ReadExact(bundlePath, man.Size)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != man.SHA256 {
		return nil, nil, fmt.Errorf("persist: %s: checksum mismatch: manifest expects sha256 %s, file has %s", bundlePath, man.SHA256, got)
	}
	ingredient, instruction, err = LoadBundle(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", bundlePath, err)
	}
	return ingredient, instruction, nil
}
