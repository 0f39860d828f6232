// Command bench is the repository's one benchmark: it boots the real
// recipeserver binary, drives it over loopback HTTP with one of four
// seeded workloads, checks every response against an in-process
// reference, and prints end-to-end metrics (or, with -trace 1,
// per-layer metrics from a traced replay). See README.md.
//
// Usage, from the repository root (bench/run.sh builds both binaries
// first and passes its arguments through):
//
//	bench/run.sh --workload annotate-hot --seed 1 --seconds 10 --trace 0 [--out FILE]
//	bench/run.sh compare BASE.json HEAD.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The full result, with
// informational fields and the reproducibility record, is appended to
// --out (default .bench_build/results/<workload>.json).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// buildDir holds everything the benchmark builds or writes; it is
// ignored by git.
const buildDir = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	// A signal stops any server this process started before exiting.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killLive()
		os.Exit(1)
	}()
	if err := runMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		killLive()
		os.Exit(1)
	}
}

func runMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	out := fs.String("out", "", "result file the full record is appended to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if *out == "" {
		*out = filepath.Join(buildDir, "results", w.name+".json")
	}
	key, err := selfKey()
	if err != nil {
		return err
	}
	fx, err := ensureFixtures(filepath.Join(buildDir, "fixtures"), key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "logs"), 0o755); err != nil {
		return err
	}
	l := procLauncher{
		bin:      filepath.Join(buildDir, "bin", "recipeserver"),
		storeDir: fx.storeDir,
		snapDir:  fx.snapDir,
		logPath:  filepath.Join(buildDir, "logs", "recipeserver.log"),
	}
	cfg := newRunConfig(*seed, *seconds, filepath.Join(buildDir, "results"))
	run := runUntraced
	if *trace == 1 {
		run = runTraced
	}
	res, err := run(w, cfg, fx, l)
	if err != nil {
		return err
	}
	if err := appendResult(*out, res); err != nil {
		return err
	}
	if !res.Valid {
		fmt.Fprintln(os.Stderr, "bench: run invalid:", res.Invalid)
	}
	if p, ok := res.Info["first_failure"]; ok {
		fmt.Fprintln(os.Stderr, "bench: first failure:", p)
	}
	line, err := res.summary()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// selfKey identifies the code under test by the digest of this binary,
// which links the checkout's packages; fixtures are cached under it.
func selfKey() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	sum, err := fileSHA(exe)
	if err != nil {
		return "", err
	}
	return sum[:16], nil
}
