// Versioned model store: the crash-safe deployment form of a trained
// bundle, over the shared version protocol in versions.go. Layout on
// disk:
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
// Save stages the bundle and its manifest and installs them as the
// next version; Load verifies the manifest checksum before decoding,
// so silent corruption is a named error, not a bad model.

package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"

	"recipemodel/internal/checkpoint"
	"recipemodel/internal/ner"
)

// Store is a versioned, crash-safe bundle directory.
type Store struct {
	*Versioned
}

// OpenStore opens (creating if necessary) a versioned store rooted at
// dir.
func OpenStore(dir string) (*Store, error) {
	v, err := OpenVersioned(dir, "bundles", "persist")
	if err != nil {
		return nil, err
	}
	return &Store{Versioned: v}, nil
}

// bundleManifest is the integrity record written next to each bundle.
type bundleManifest struct {
	Version string `json:"version"`
	Size    int64  `json:"size"`
	SHA256  string `json:"sha256"`
}

// Save installs a new version containing the tagger pair and swaps
// CURRENT to it, returning the version name. The install is crash-safe:
// until the final CURRENT rename commits, a loader sees the previous
// version.
func (s *Store) Save(ingredient, instruction *ner.Tagger, opts ner.FeatureOptions) (string, error) {
	return s.Install(func(stage, version string) error {
		// Encode once, hash the exact bytes that hit the disk.
		var buf bytes.Buffer
		if err := SaveBundle(&buf, ingredient, instruction, opts); err != nil {
			return err
		}
		if err := checkpoint.WriteFileAtomic(filepath.Join(stage, "bundle.gob"), buf.Bytes(), 0o644); err != nil {
			return err
		}
		sum := sha256.Sum256(buf.Bytes())
		man, err := json.Marshal(bundleManifest{
			Version: version,
			Size:    int64(buf.Len()),
			SHA256:  hex.EncodeToString(sum[:]),
		})
		if err != nil {
			return err
		}
		return checkpoint.WriteFileAtomic(filepath.Join(stage, "MANIFEST.json"), append(man, '\n'), 0o644)
	})
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
	verDir := s.VersionDir(version)
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
	data, err := s.ReadVerified(bundlePath, man.Size, man.SHA256)
	if err != nil {
		return nil, nil, err
	}
	ingredient, instruction, err = LoadBundle(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", bundlePath, err)
	}
	return ingredient, instruction, nil
}
