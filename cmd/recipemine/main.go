// Command recipemine is the CLI front end of the recipe-modeling
// pipeline: generate synthetic RecipeDB-style recipes, annotate
// ingredient phrases, and mine full recipes into the paper's uniform
// structure.
//
// Usage:
//
//	recipemine generate  -n 3 -seed 7
//	recipemine train     -o pipeline.bin
//	recipemine train     -store models/   # publish a version into the model store
//	recipemine annotate  [-model pipeline.bin] [-workers N] "2 cups chopped onion" [...]
//	recipemine instruct  "Bring the water to a boil in a large pot."
//	recipemine mine      -n 100 -workers 8            # batch-mine to stdout
//	recipemine mine      -n 100000 -o corpus.jsonl    # durable, checkpointed run
//	recipemine mine      -resume -n 100000 -o corpus.jsonl  # continue after a crash
//	recipemine mine      -n 100000 -o corpus.jsonl -quarantine bad.jsonl  # dead-letter poison records
//	recipemine snapshot  -store snapshots/ -from corpus.jsonl  # publish a corpus snapshot version
//	recipemine model     < recipe.txt     # title \n ingredients... \n -- \n instructions
//	recipemine nutrition < recipe.txt
//	recipemine translate -lang fr < recipe.txt
//	recipemine flow      < recipe.txt     # dataflow graph as DOT
//
// Batch subcommands fan out over -workers goroutines (default: all
// CPUs); output is identical at any worker count.
//
// With -o, mine is crash-safe: after every chunk the output file is
// fsync'd and a write-ahead manifest (<out>.ckpt) records how many
// records are durable and at what byte offset. A run killed at any
// point — SIGKILL included — resumes with -resume: the torn tail past
// the last durable record is truncated and mining continues from the
// recorded position, producing output byte-identical to an
// uninterrupted run (mining is deterministic, so re-derived records
// match exactly). The checkpoint fingerprints -n/-seed/-model; a
// resume under a different configuration is refused rather than
// splicing incompatible outputs. -workers is deliberately absent from
// the fingerprint: results are identical at any worker count, so a
// resume may use a different pool size.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"

	"recipemodel"
	"recipemodel/internal/checkpoint"
	"recipemodel/internal/core"
	"recipemodel/internal/faults"
	"recipemodel/internal/quarantine"
	"recipemodel/internal/recipedb"
	"recipemodel/internal/snapshot"
)

// FaultEmit fires after every record a durable (-o) mine appends,
// before any flush or checkpoint. Crash tests arm it with an error at
// exact call counts to simulate a kill mid-run — unflushed bytes are
// lost and the manifest is stale, exactly the state a SIGKILL leaves.
const FaultEmit = "recipemine.emit"

var _ = faults.MustRegister(FaultEmit)

func main() {
	// SIGINT cancels the context; streaming subcommands (mine) flush
	// the complete records written so far and exit 0 instead of dying
	// mid-line. A second SIGINT kills the process the hard way (the
	// stop func restores default signal handling).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := runCtx(ctx, os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "recipemine:", err)
		os.Exit(1)
	}
}

// run keeps the historical signature for non-streaming callers.
func run(args []string, in io.Reader, out io.Writer) error {
	return runCtx(context.Background(), args, in, out)
}

func runCtx(ctx context.Context, args []string, in io.Reader, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: recipemine <generate|annotate|instruct|mine|snapshot|model|nutrition> [args]")
	}
	switch args[0] {
	case "generate":
		return cmdGenerate(args[1:], out)
	case "train":
		return cmdTrain(args[1:], out)
	case "annotate":
		return cmdAnnotate(args[1:], out)
	case "instruct":
		return cmdInstruct(args[1:], out)
	case "mine":
		return cmdMine(ctx, args[1:], out)
	case "snapshot":
		return cmdSnapshot(args[1:], out)
	case "model":
		return cmdModel(args[1:], in, out, modeStructure)
	case "nutrition":
		return cmdModel(args[1:], in, out, modeNutrition)
	case "translate":
		return cmdModel(args[1:], in, out, modeTranslate)
	case "flow":
		return cmdModel(args[1:], in, out, modeFlow)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// cmdTrain trains a pipeline and persists it — either to a flat file
// (-o) or as a new version in a crash-safe model store (-store), the
// form recipeserver hot-reloads from.
func cmdTrain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	output := fs.String("o", "pipeline.bin", "output model file")
	store := fs.String("store", "", "versioned model store directory (publishes a new version; overrides -o)")
	seed := fs.Int64("seed", 1, "training seed")
	phrases := fs.Int("phrases", 2500, "training phrases per source")
	instructions := fs.Int("instructions", 1200, "training instructions per source")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := recipemodel.DefaultOptions()
	opts.Seed = *seed
	opts.TrainingPhrases = *phrases
	opts.TrainingInstructions = *instructions
	fmt.Fprintln(out, "training pipeline on synthetic gold corpus ...")
	p, err := recipemodel.NewPipeline(opts)
	if err != nil {
		return err
	}
	if *store != "" {
		version, err := p.SaveToStore(*store)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "published %s to store %s\n", version, *store)
		return nil
	}
	// The model file is a durable artifact: write it atomically
	// (temp + fsync + rename) so a crash mid-save can never leave a
	// torn pipeline.bin for a later -model load to choke on.
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return err
	}
	if err := checkpoint.WriteFileAtomic(*output, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "saved pipeline to %s\n", *output)
	return nil
}

// loadOrTrain loads a persisted pipeline when path is non-empty, else
// trains a fresh one.
func loadOrTrain(path string, out io.Writer) (*recipemodel.Pipeline, error) {
	if path == "" {
		return trainPipeline(out)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return recipemodel.LoadPipeline(f)
}

func cmdGenerate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	n := fs.Int("n", 3, "number of recipes")
	seed := fs.Int64("seed", 1, "generator seed")
	jsonl := fs.Bool("jsonl", false, "emit the gold-annotated corpus as JSON Lines")
	src := fs.String("source", "allrecipes", "site style: allrecipes or foodcom")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jsonl {
		source := recipedb.SourceAllRecipes
		if strings.EqualFold(*src, "foodcom") {
			source = recipedb.SourceFoodCom
		}
		g := recipedb.NewGenerator(source, *seed)
		return recipedb.WriteJSONL(out, g.Recipes(*n))
	}
	for _, r := range recipemodel.SyntheticRecipes(*n, *seed) {
		fmt.Fprintf(out, "# %s (%s)\n", r.Title, r.Cuisine)
		fmt.Fprintln(out, "Ingredients:")
		for _, line := range r.IngredientLines {
			fmt.Fprintf(out, "  %s\n", line)
		}
		fmt.Fprintf(out, "Instructions:\n  %s\n\n", r.Instructions)
	}
	return nil
}

func trainPipeline(out io.Writer) (*recipemodel.Pipeline, error) {
	fmt.Fprintln(out, "training pipeline on synthetic gold corpus ...")
	return recipemodel.NewPipeline(recipemodel.DefaultOptions())
}

func cmdAnnotate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("annotate", flag.ContinueOnError)
	modelPath := fs.String("model", "", "persisted pipeline file (empty: train fresh)")
	workers := fs.Int("workers", runtime.NumCPU(), "batch annotation goroutines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()
	if len(args) == 0 {
		return fmt.Errorf("annotate: need at least one ingredient phrase")
	}
	p, err := loadOrTrain(*modelPath, out)
	if err != nil {
		return err
	}
	p.SetWorkers(*workers)
	fmt.Fprintf(out, "%-40s %-20s %-10s %-9s %-10s %-10s %-9s %-8s\n",
		"Phrase", "Name", "State", "Quantity", "Unit", "Temp", "DryFresh", "Size")
	for _, r := range p.AnnotateIngredients(args) {
		fmt.Fprintf(out, "%-40s %-20s %-10s %-9s %-10s %-10s %-9s %-8s\n",
			r.Phrase, r.Name, r.State, r.Quantity, r.Unit, r.Temp, r.DryFresh, r.Size)
	}
	return nil
}

// startCPUProfile begins a CPU profile into path and returns the stop
// function. The file is opened with explicit flags and synced on stop:
// recipemine is a durable package, and a truncated profile from a
// crashed run should at least be visibly truncated, not silently
// cached.
func startCPUProfile(path string) (stop func(), err error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Sync(); err != nil {
			fmt.Fprintln(os.Stderr, "recipemine: cpuprofile:", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "recipemine: cpuprofile:", err)
		}
	}, nil
}

// writeHeapProfile dumps a heap profile to path, forcing a GC first so
// the profile reflects live objects rather than garbage awaiting
// collection.
func writeHeapProfile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

// cmdMine is the batch-mining engine: generate (or later: ingest) a
// recipe corpus and mine every recipe into the paper's uniform
// structure on a worker pool, emitting one RecipeModel JSON per line.
// Mining streams in chunks so an interrupt (SIGINT) stops dispatch at
// a chunk boundary, flushes every complete record already mined, and
// exits 0 — downstream consumers never see a torn JSONL line.
//
// Mining degrades per record, not per batch: a poison recipe (invalid
// UTF-8, a pathological phrase, a contained panic) is skipped in the
// output and written to the -quarantine dead-letter file as one JSONL
// line {index, phrase, code, detail}; the other records are
// byte-identical to a clean run. Without -quarantine, rejections are
// counted but discarded. The final summary line always reports the
// cumulative quarantine counters (total, by code).
//
// With -o the run is additionally crash-safe: see mineDurable.
func cmdMine(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mine", flag.ContinueOnError)
	n := fs.Int("n", 100, "number of synthetic recipes to mine")
	seed := fs.Int64("seed", 1, "corpus generator seed")
	modelPath := fs.String("model", "", "persisted pipeline file (empty: train fresh)")
	workers := fs.Int("workers", runtime.NumCPU(), "mining goroutines")
	output := fs.String("o", "", "durable output file (empty: stream to stdout)")
	quarantinePath := fs.String("quarantine", "", "dead-letter JSONL file for poison records (empty: count but discard)")
	resume := fs.Bool("resume", false, "continue an interrupted -o run from its checkpoint")
	force := fs.Bool("force", false, "overwrite an existing -o file instead of refusing")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run (train + mine) to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n <= 0 {
		return fmt.Errorf("mine: -n must be positive")
	}
	if *resume && *output == "" {
		return fmt.Errorf("mine: -resume requires -o")
	}
	if *resume && *force {
		return fmt.Errorf("mine: -resume and -force are contradictory; pick one")
	}
	if *cpuprofile != "" {
		stopProfile, err := startCPUProfile(*cpuprofile)
		if err != nil {
			return err
		}
		defer stopProfile()
	}
	if *memprofile != "" {
		// A failed profile write at exit must not fail the mine (the
		// mined records are already flushed); report it and move on.
		defer func() {
			if perr := writeHeapProfile(*memprofile); perr != nil {
				fmt.Fprintln(os.Stderr, "recipemine:", perr)
			}
		}()
	}
	p, err := loadOrTrain(*modelPath, os.Stderr)
	if err != nil {
		return err
	}
	p.SetWorkers(*workers)
	inputs := recipemodel.Inputs(recipemodel.SyntheticRecipes(*n, *seed))

	if *output != "" {
		fp, err := mineFingerprint(*n, *seed, *modelPath)
		if err != nil {
			return err
		}
		return mineDurable(ctx, p, inputs, *output, *quarantinePath, *resume, *force, fp)
	}

	var sink *quarantine.Sink
	if *quarantinePath != "" {
		sink, err = quarantine.Create(*quarantinePath)
		if err != nil {
			return err
		}
		defer sink.Close()
	}
	var qc quarantine.Counters
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	chunk := 4 * p.Workers()
	mined := 0
	for lo := 0; lo < len(inputs); lo += chunk {
		hi := min(lo+chunk, len(inputs))
		models, rejs, mineErr := p.ModelRecipesPartial(ctx, inputs[lo:hi])
		// On cancellation the processed slots form a contiguous prefix
		// of the chunk (the pool dispatches in order and finishes what
		// it started); emit the prefix, never a partial record. A slot
		// that is neither mined nor rejected was never dispatched.
		rejected := rejectionsByIndex(rejs)
		for i, m := range models {
			if m == nil {
				r, ok := rejected[i]
				if !ok {
					break
				}
				r.Index = lo + i
				qc.Observe(r.Code)
				if err := sink.Append(r); err != nil {
					return err
				}
				continue
			}
			if err := enc.Encode(m); err != nil {
				return err
			}
			mined++
		}
		if mineErr != nil {
			if err := bw.Flush(); err != nil {
				return err
			}
			if errors.Is(mineErr, context.Canceled) {
				fmt.Fprintf(os.Stderr, "recipemine: interrupted; flushed %d/%d complete records; quarantined %s\n", mined, len(inputs), qc.Summary())
				return nil
			}
			return mineErr
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recipemine: mined %d/%d records; quarantined %s\n", mined, len(inputs), qc.Summary())
	return nil
}

// rejectionsByIndex keys a chunk's rejections by their chunk-local
// index so emit loops can distinguish "rejected" from "undispatched"
// nil slots.
func rejectionsByIndex(rejs []recipemodel.Rejection) map[int]recipemodel.Rejection {
	m := make(map[int]recipemodel.Rejection, len(rejs))
	for _, r := range rejs {
		m[r.Index] = r
	}
	return m
}

// mineFingerprint hashes everything that determines a mining run's
// output — corpus size, generator seed, and the exact model bytes —
// into a short hex digest stored in the checkpoint manifest. A -resume
// whose fingerprint differs would splice records from two different
// runs into one file, so it is refused. -workers is deliberately
// excluded: output is byte-identical at any worker count, and a resume
// is free to use a different pool size.
func mineFingerprint(n int, seed int64, modelPath string) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "recipemine/v1 n=%d seed=%d model=", n, seed)
	if modelPath == "" {
		io.WriteString(h, "fresh-default")
	} else {
		f, err := os.Open(modelPath)
		if err != nil {
			return "", fmt.Errorf("mine: fingerprint model: %w", err)
		}
		defer f.Close()
		if _, err := io.Copy(h, f); err != nil {
			return "", fmt.Errorf("mine: fingerprint model: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// mineDurable is the crash-safe mining path. The discipline per chunk
// is data-first write-ahead: append records, flush, fsync the data
// file, then atomically persist a manifest recording how many records
// and bytes are durable. A crash at ANY point leaves the previous
// manifest describing an fsync'd prefix of the file; -resume truncates
// whatever torn tail lies past that offset and re-mines from the
// recorded record count. Mining is deterministic, so the resumed run's
// bytes are identical to an uninterrupted run's.
//
// The quarantine dead-letter file rides the same discipline: its bytes
// are fsync'd before every manifest save, the manifest records its
// durable offset and rejection count, and a resume truncates its torn
// tail too. Inputs consumed = Records + Quarantined, which is where a
// resume re-enters the corpus; both files end byte-identical to an
// uninterrupted run's.
func mineDurable(ctx context.Context, p *recipemodel.Pipeline, inputs []recipemodel.RecipeInput, path, quarantinePath string, resume, force bool, fp string) error {
	ckptPath := checkpoint.PathFor(path)
	var f *os.File
	var sink *quarantine.Sink
	var qc quarantine.Counters
	start := 0
	quarantined := 0
	if resume {
		man, err := checkpoint.Load(ckptPath)
		if err != nil {
			return fmt.Errorf("mine: -resume: %w", err)
		}
		if man.Fingerprint != fp {
			return fmt.Errorf("mine: -resume refused: checkpoint %s was written by a different run configuration (fingerprint %s, this run %s); rerun with the original -n/-seed/-model or start fresh with -force", ckptPath, man.Fingerprint, fp)
		}
		if man.Records+man.Quarantined > len(inputs) {
			return fmt.Errorf("mine: -resume: checkpoint %s records %d inputs consumed but this run mines only %d", ckptPath, man.Records+man.Quarantined, len(inputs))
		}
		// The dead-letter file is part of the run's durable state: a
		// resume must keep writing the same file (or keep discarding),
		// or the rejection log would silently lose or skip records.
		if man.QuarantineOffset > 0 && quarantinePath == "" {
			return fmt.Errorf("mine: -resume: checkpoint %s has a quarantine file at offset %d; pass the original -quarantine path", ckptPath, man.QuarantineOffset)
		}
		if man.Quarantined > 0 && man.QuarantineOffset == 0 && quarantinePath != "" {
			return fmt.Errorf("mine: -resume: the original run discarded %d rejections (no -quarantine); resuming with -quarantine would produce a dead-letter file missing them", man.Quarantined)
		}
		f, err = os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("mine: -resume: %w", err)
		}
		// Drop the torn tail: anything past the manifest offset was
		// never covered by a checkpoint and may be a partial line.
		if err := f.Truncate(man.Offset); err != nil {
			f.Close()
			return fmt.Errorf("mine: -resume truncate: %w", err)
		}
		if _, err := f.Seek(man.Offset, io.SeekStart); err != nil {
			f.Close()
			return fmt.Errorf("mine: -resume seek: %w", err)
		}
		if quarantinePath != "" {
			sink, err = quarantine.Resume(quarantinePath, man.QuarantineOffset)
			if err != nil {
				f.Close()
				return fmt.Errorf("mine: -resume: %w", err)
			}
			// Rebuild the by-code counters from the durable rejections so
			// the final summary covers the whole run, not just this
			// process.
			durable, err := quarantine.ReadFile(quarantinePath)
			if err != nil {
				f.Close()
				sink.Close()
				return fmt.Errorf("mine: -resume: %w", err)
			}
			for _, r := range durable {
				qc.Observe(r.Code)
			}
		}
		start = man.Records
		quarantined = man.Quarantined
		if start+quarantined == len(inputs) {
			f.Close()
			sink.Close()
			fmt.Fprintf(os.Stderr, "recipemine: %s already complete (%d records, %d quarantined)\n", path, start, quarantined)
			return nil
		}
		fmt.Fprintf(os.Stderr, "recipemine: resuming %s at input %d/%d (offset %d, %d quarantined)\n", path, start+quarantined, len(inputs), man.Offset, quarantined)
	} else {
		flags := os.O_WRONLY | os.O_CREATE | os.O_EXCL
		if force {
			flags = os.O_WRONLY | os.O_CREATE | os.O_TRUNC
		}
		var err error
		f, err = os.OpenFile(path, flags, 0o644)
		if errors.Is(err, os.ErrExist) {
			return fmt.Errorf("mine: %s already exists; pass -resume to continue it or -force to overwrite", path)
		}
		if err != nil {
			return err
		}
		if quarantinePath != "" {
			sink, err = quarantine.Create(quarantinePath)
			if err != nil {
				f.Close()
				return err
			}
		}
		// Write-ahead: an empty manifest marks the run as started so a
		// crash before the first checkpoint still resumes cleanly.
		if err := checkpoint.Save(ckptPath, checkpoint.Manifest{Fingerprint: fp}); err != nil {
			f.Close()
			sink.Close()
			return fmt.Errorf("mine: %w", err)
		}
	}
	defer f.Close()
	defer sink.Close()

	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	mined := start
	// sync makes everything appended so far durable and checkpoints it:
	// flush the buffers, fsync the data (output and dead-letter), then
	// atomically replace the manifest. Ordering is the crash-safety
	// invariant — the manifest never describes bytes that are not
	// already on disk.
	sync := func() error {
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		offset, err := f.Seek(0, io.SeekCurrent)
		if err != nil {
			return err
		}
		qoff, err := sink.Sync()
		if err != nil {
			return err
		}
		return checkpoint.Save(ckptPath, checkpoint.Manifest{
			Fingerprint:      fp,
			Records:          mined,
			Offset:           offset,
			Quarantined:      quarantined,
			QuarantineOffset: qoff,
		})
	}

	chunk := 4 * p.Workers()
	for lo := start + quarantined; lo < len(inputs); lo += chunk {
		hi := min(lo+chunk, len(inputs))
		models, rejs, mineErr := p.ModelRecipesPartial(ctx, inputs[lo:hi])
		rejected := rejectionsByIndex(rejs)
		for i, m := range models {
			if m == nil {
				r, ok := rejected[i]
				if !ok {
					// Neither mined nor rejected: the pool never
					// dispatched this slot (cancellation mid-chunk).
					break
				}
				r.Index = lo + i
				qc.Observe(r.Code)
				if err := sink.Append(r); err != nil {
					return err
				}
				quarantined++
				continue
			}
			if err := enc.Encode(m); err != nil {
				return err
			}
			// Simulated-kill point for crash tests: an injected error
			// aborts before any flush or checkpoint, losing buffered
			// bytes exactly like a SIGKILL would.
			if err := faults.InjectContext(ctx, FaultEmit); err != nil {
				return fmt.Errorf("mine: %w", err)
			}
			mined++
		}
		if mineErr != nil {
			if err := sync(); err != nil {
				return err
			}
			if errors.Is(mineErr, context.Canceled) {
				fmt.Fprintf(os.Stderr, "recipemine: interrupted; %d/%d records durable in %s (quarantined %s); continue with -resume\n", mined, len(inputs), path, qc.Summary())
				return nil
			}
			return mineErr
		}
		if err := sync(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "recipemine: mined %d/%d records to %s; quarantined %s\n", mined, len(inputs), path, qc.Summary())
	return nil
}

// cmdSnapshot packs a mined JSONL corpus into a new version of the
// versioned snapshot store — the binary-segmented, sha256-manifested
// form recipeserver's query endpoints load and hot-swap. It is also
// how a store written with JSONL segments is migrated: concatenate a
// version's segments and publish them again. Publishing is
// two-phase and crash-safe; the store's CURRENT pointer swings to the
// new version only after every segment and the manifest are durable.
func cmdSnapshot(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("snapshot", flag.ContinueOnError)
	store := fs.String("store", "", "snapshot store directory (required)")
	from := fs.String("from", "", "mined corpus JSONL file, as produced by `recipemine mine -o` (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *store == "" || *from == "" {
		return fmt.Errorf("snapshot: -store and -from are required")
	}
	f, err := os.Open(*from)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	var models []*core.RecipeModel
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var m core.RecipeModel
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("snapshot: %s: decode record %d: %w", *from, len(models), err)
		}
		models = append(models, &m)
	}
	st, err := snapshot.OpenStore(*store)
	if err != nil {
		return err
	}
	version, err := st.Build(models)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "published snapshot %s (%d docs) to %s\n", version, len(models), *store)
	return nil
}

func cmdInstruct(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("instruct: need an instruction sentence")
	}
	p, err := trainPipeline(out)
	if err != nil {
		return err
	}
	for _, step := range args {
		spans, tree, rels := p.AnnotateInstruction(step)
		fmt.Fprintf(out, "%s\n", step)
		fmt.Fprintln(out, "entities:")
		tokens := tree.Tokens
		for _, sp := range spans {
			fmt.Fprintf(out, "  [%s] %s\n", sp.Type, strings.Join(tokens[sp.Start:sp.End], " "))
		}
		fmt.Fprintln(out, "dependency parse:")
		fmt.Fprint(out, tree.String())
		fmt.Fprintln(out, "relations:")
		for _, r := range rels {
			fmt.Fprintf(out, "  %s\n", r)
		}
	}
	return nil
}

// output modes of cmdModel.
type modelMode int

const (
	modeStructure modelMode = iota
	modeNutrition
	modeTranslate
	modeFlow
)

// cmdModel reads a recipe from stdin: first line is the title, then
// ingredient lines until a "--" separator, then instruction text.
func cmdModel(args []string, in io.Reader, out io.Writer, mode modelMode) error {
	fs := flag.NewFlagSet("model", flag.ContinueOnError)
	cuisine := fs.String("cuisine", "", "cuisine label")
	modelPath := fs.String("model", "", "persisted pipeline file (empty: train fresh)")
	lang := fs.String("lang", "fr", "target language for translate (fr, es)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc := bufio.NewScanner(in)
	var title string
	var ingredients []string
	var instructions strings.Builder
	stage := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case stage == 0:
			title = line
			stage = 1
		case stage == 1 && line == "--":
			stage = 2
		case stage == 1 && line != "":
			ingredients = append(ingredients, line)
		case stage == 2 && line != "":
			instructions.WriteString(line)
			instructions.WriteByte(' ')
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if title == "" || len(ingredients) == 0 {
		return fmt.Errorf("model: expected 'title\\ningredients...\\n--\\ninstructions' on stdin")
	}
	p, err := loadOrTrain(*modelPath, out)
	if err != nil {
		return err
	}
	m := p.ModelRecipe(title, *cuisine, ingredients, instructions.String())

	switch mode {
	case modeTranslate:
		text, err := recipemodel.Translate(m, *lang)
		if err != nil {
			return err
		}
		fmt.Fprint(out, text)
		return nil
	case modeFlow:
		fmt.Fprint(out, recipemodel.BuildFlowGraph(m).DOT())
		return nil
	}

	fmt.Fprintf(out, "# %s\n", m.Title)
	fmt.Fprintln(out, "Ingredient records:")
	for _, r := range m.Ingredients {
		fmt.Fprintf(out, "  name=%q state=%q qty=%q unit=%q temp=%q dryfresh=%q size=%q\n",
			r.Name, r.State, r.Quantity, r.Unit, r.Temp, r.DryFresh, r.Size)
	}
	fmt.Fprintln(out, "Event chain:")
	for _, e := range m.Events {
		fmt.Fprintf(out, "  step %d: %s\n", e.Step+1, e.Relation)
	}
	if mode == modeNutrition {
		profile, resolved := p.EstimateNutrition(m)
		fmt.Fprintf(out, "Nutrition (%d/%d ingredients resolved): %s\n",
			resolved, len(m.Ingredients), profile)
	}
	return nil
}
