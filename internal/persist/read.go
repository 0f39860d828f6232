// Bounded reads for versioned stores. A loader knows from the manifest
// exactly how many bytes each covered file must hold, so it never
// needs to trust the file's own length: ReadExact compares the open
// file's size with the manifest before allocating anything, and
// ReadManifest reads a manifest through a fixed cap. A corrupted or
// hostile file, such as a segment extended to a sparse terabyte by
// one truncate, is then a named-file error rather than an allocation
// the runtime cannot satisfy (os.ReadFile would pre-allocate the
// stat size, and running out of memory is fatal, not a panic).

package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// maxManifestBytes caps every manifest read. A corpus manifest grows
// by about 150 bytes per 2,048-record segment, so the cap leaves room
// for tens of millions of documents.
const maxManifestBytes = 4 << 20

// ReadManifest reads the manifest at path, refusing one larger than
// maxManifestBytes.
func ReadManifest(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, maxManifestBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxManifestBytes {
		return nil, fmt.Errorf("%s: larger than the %d-byte manifest cap", path, maxManifestBytes)
	}
	return data, nil
}

// ReadExact reads the file at path, which its manifest says holds
// exactly size bytes. The open file's size is checked first, then
// exactly size bytes are read and end of file is confirmed, so a file
// that is the wrong size, or changes size while it is read, is an
// error naming it.
func ReadExact(path string, size int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if info.Size() != size {
		return nil, fmt.Errorf("%s: size %d bytes, manifest expects %d", path, info.Size(), size)
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("%s: reading the %d bytes its manifest expects: %w", path, size, err)
	}
	var extra [1]byte
	if n, err := f.Read(extra[:]); n > 0 {
		return nil, fmt.Errorf("%s: grew past the %d bytes its manifest expects while being read", path, size)
	} else if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return data, nil
}
