package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run records. The last line of standard
// output carries only correct, attempted, failed and metrics; the full
// record goes to the result file.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	StartedNS int64             `json:"started_unix_ns"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Valid is false when the load generator could not hold the
	// offered schedule, or when the traced replay's layers do not
	// reconcile with the handler; Invalid says why.
	Valid   bool           `json:"valid"`
	Invalid []string       `json:"invalid,omitempty"`
	Info    map[string]any `json:"info"`
	Repro   repro          `json:"repro"`
}

func (r *result) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// summary is the contract's last output line.
func (r *result) summary() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// repro pins what a run measured and where.
type repro struct {
	StreamSHA256   string  `json:"stream_sha256"`
	BundleSHA256   string  `json:"bundle_sha256"`
	ManifestSHA256 string  `json:"snapshot_manifest_sha256"`
	Machine        machine `json:"machine"`
	Commit         string  `json:"commit"`
	Dirty          *bool   `json:"dirty"`
}

type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
}

func machineFacts() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(data))
	}
	return m
}

// commitFacts reports the commit of the checkout rooted at the working
// directory and whether it has local changes; when the directory is not
// the top of a git work tree the commit is "unknown".
func commitFacts() (string, *bool) {
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	wd, werr := os.Getwd()
	if err != nil || werr != nil || filepath.Clean(strings.TrimSpace(string(top))) != wd {
		return "unknown", nil
	}
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", nil
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	if err != nil {
		return strings.TrimSpace(string(head)), nil
	}
	dirty := len(strings.TrimSpace(string(status))) > 0
	return strings.TrimSpace(string(head)), &dirty
}

// resultFile is the on-disk form: runs appended in the order they ran,
// so one file can hold N runs of one side for compare.
type resultFile struct {
	Runs []result `json:"runs"`
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// appendResult adds r to the result file at path, creating it (and its
// directory) when absent.
func appendResult(path string, r *result) error {
	f, err := readResults(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, *r)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
