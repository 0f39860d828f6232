// Versioned stores: the one on-disk protocol behind both the model
// store (store.go) and the corpus snapshot store (internal/snapshot).
// A store root holds immutable version directories under one
// subdirectory, plus a single CURRENT file naming the serving version:
//
//	<root>/
//	  CURRENT            ← version name, swapped by atomic rename
//	  <sub>/             ← bundles/ or snapshots/
//	    v000001/         ← the version's files and their MANIFEST.json
//	    v000002/
//	      ...
//
// Publishing is a two-phase install. The version's files are written
// atomically inside a hidden .install-<version> directory, which is
// renamed into place and its parent fsync'd; only then does CURRENT
// swing, itself by atomic rename. A crash anywhere in the sequence
// leaves CURRENT naming the previous, fully durable version: a
// half-written install is an orphaned directory that the next install
// overwrites, never a version CURRENT can name. Rollback is SetCurrent
// at an older version. Loads read every file through ReadVerified,
// which checks its size against the manifest before reading it and its
// sha256 after, so silent corruption is an error naming the file, not
// a bad artifact.

package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"recipemodel/internal/checkpoint"
	"recipemodel/internal/faults"
)

// FaultInstall fires after a version directory is durable but before
// CURRENT swings to it, in every store: the exact window a crash must
// not be able to corrupt. Tests arm it to prove the store stays
// loadable at the previous version.
const FaultInstall = "persist.install"

var _ = faults.MustRegister(FaultInstall)

// currentFile is the pointer file naming the serving version.
const currentFile = "CURRENT"

// Versioned is the version-directory protocol over one store root. The
// typed stores embed it and add only their own encoding and manifest.
type Versioned struct {
	dir    string // store root
	sub    string // version subdirectory under the root
	prefix string // leads every error, naming the store
}

// OpenVersioned opens (creating if necessary) a versioned store rooted
// at dir, with its versions under dir/sub. Its errors begin with
// prefix.
func OpenVersioned(dir, sub, prefix string) (*Versioned, error) {
	if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
		return nil, fmt.Errorf("%s: open store: %w", prefix, err)
	}
	return &Versioned{dir: dir, sub: sub, prefix: prefix}, nil
}

// Dir returns the store root.
func (v *Versioned) Dir() string { return v.dir }

// VersionDir returns the directory an installed version lives in.
func (v *Versioned) VersionDir(version string) string {
	return filepath.Join(v.dir, v.sub, version)
}

// Versions lists the installed versions in ascending order (temp
// directories from interrupted installs are excluded).
func (v *Versioned) Versions() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(v.dir, v.sub))
	if err != nil {
		return nil, fmt.Errorf("%s: list versions: %w", v.prefix, err)
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

// Install publishes the next version and swaps CURRENT to it,
// returning the version name. write fills the stage directory, which
// already exists, with the version's files, each through
// checkpoint.WriteFileAtomic. Until the final CURRENT rename commits,
// a loader sees the previous version; on any error before the rename
// into place, the stage is removed.
func (v *Versioned) Install(write func(stage, version string) error) (version string, err error) {
	versions, err := v.Versions()
	if err != nil {
		return "", err
	}
	n := 0
	for _, name := range versions {
		var i int
		if _, err := fmt.Sscanf(name, "v%06d", &i); err == nil && i > n {
			n = i
		}
	}
	version = fmt.Sprintf("v%06d", n+1)
	sub := filepath.Join(v.dir, v.sub)
	stage := filepath.Join(sub, ".install-"+version)
	// A previous interrupted install may have left the stage behind.
	if err := os.RemoveAll(stage); err != nil {
		return "", fmt.Errorf("%s: install %s: %w", v.prefix, version, err)
	}
	if err := os.MkdirAll(stage, 0o755); err != nil {
		return "", fmt.Errorf("%s: install %s: %w", v.prefix, version, err)
	}
	defer func() {
		if err != nil {
			os.RemoveAll(stage)
		}
	}()
	if err := write(stage, version); err != nil {
		return "", fmt.Errorf("%s: install %s: %w", v.prefix, version, err)
	}
	if err := os.Rename(stage, v.VersionDir(version)); err != nil {
		return "", fmt.Errorf("%s: install %s: %w", v.prefix, version, err)
	}
	if err := checkpoint.SyncDir(sub); err != nil {
		return "", fmt.Errorf("%s: install %s: %w", v.prefix, version, err)
	}
	// The version is durable; the swap below publishes it. A crash in
	// this window (the armed fault simulates one) must leave CURRENT on
	// the previous version.
	if err := faults.Inject(FaultInstall); err != nil {
		return version, fmt.Errorf("%s: install %s: %w", v.prefix, version, err)
	}
	if err := v.SetCurrent(version); err != nil {
		return version, err
	}
	return version, nil
}

// SetCurrent atomically points CURRENT at an installed version: also
// the rollback primitive, pointing it back at a previous version.
func (v *Versioned) SetCurrent(version string) error {
	if _, err := os.Stat(v.VersionDir(version)); err != nil {
		return fmt.Errorf("%s: set current: version %q not installed: %w", v.prefix, version, err)
	}
	path := filepath.Join(v.dir, currentFile)
	if err := checkpoint.WriteFileAtomic(path, []byte(version+"\n"), 0o644); err != nil {
		return fmt.Errorf("%s: set current %s: %w", v.prefix, version, err)
	}
	return nil
}

// Current reads the serving version from CURRENT.
func (v *Versioned) Current() (string, error) {
	version, err := ReadCurrentPointer(v.dir)
	if err != nil {
		return "", fmt.Errorf("%s: %w", v.prefix, err)
	}
	return version, nil
}

// ReadCurrentPointer reads the serving version from dir's CURRENT
// file, through the manifest cap. The pointer must name one version
// directory: an empty pointer, or one that is not a single path
// element, is an error naming the file.
func ReadCurrentPointer(dir string) (string, error) {
	path := filepath.Join(dir, currentFile)
	data, err := ReadManifest(path)
	if err != nil {
		return "", err
	}
	version := strings.TrimSpace(string(data))
	if version == "" {
		return "", fmt.Errorf("%s is empty", path)
	}
	if version != filepath.Base(version) || version == "." || version == ".." {
		return "", fmt.Errorf("%s: invalid version name %q", path, version)
	}
	return version, nil
}

// ReadVerified reads the file at path, which its manifest says holds
// exactly size bytes with the hex sha256 digest sum. The size is
// checked before anything is allocated for the bytes, the digest after
// they are read; a mismatch names the file and both digests.
func (v *Versioned) ReadVerified(path string, size int64, sum string) ([]byte, error) {
	data, err := readExact(path, size)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", v.prefix, err)
	}
	digest := sha256.Sum256(data)
	if got := hex.EncodeToString(digest[:]); got != sum {
		return nil, fmt.Errorf("%s: %s: checksum mismatch: manifest expects sha256 %s, file has %s", v.prefix, path, sum, got)
	}
	return data, nil
}
