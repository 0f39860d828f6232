package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// spec is BENCHMARK.json: the workloads and metrics every result must
// carry, with each end-to-end metric's direction and regression bound.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// verdict names for one workload × metric row.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	missing    = "missing"
)

// judge applies the landing rule to paired runs (base[i] ran beside
// head[i]):
//   - regressed: head's median is worse than base's by more than bound;
//   - unresolved: base's own spread (interquartile range over median)
//     is wider than bound, unless every head run beats every base run;
//   - improved: head wins at least 9 of 10 pairs (ties count for
//     neither) and the medians differ by more than base's
//     interquartile range;
//   - unchanged otherwise.
func judge(base, head []float64, lowerIsBetter bool, bound float64) (string, int) {
	better := func(h, b float64) bool {
		if lowerIsBetter {
			return h < b
		}
		return h > b
	}
	wins := 0
	for i := range base {
		if better(head[i], base[i]) {
			wins++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	_, hmed, _ := quartiles(head)
	worse := (hmed - bmed) / math.Abs(bmed)
	if !lowerIsBetter {
		worse = -worse
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	switch {
	case worse > bound:
		return regressed, wins
	case (bq3-bq1)/math.Abs(bmed) > bound && !allBetter:
		return unresolved, wins
	case 10*wins >= 9*len(base) && better(hmed, bmed) && math.Abs(hmed-bmed) > bq3-bq1:
		return improved, wins
	}
	return unchanged, wins
}

// pairRuns matches base and head runs of one workload by seed, each run
// used at most once, in seed order. unpaired counts the runs left over
// on either side.
func pairRuns(base, head []result) (b, h []result, unpaired int) {
	bySeed := map[int64][]result{}
	for _, r := range head {
		bySeed[r.Seed] = append(bySeed[r.Seed], r)
	}
	sorted := append([]result(nil), base...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Seed < sorted[j].Seed })
	for _, r := range sorted {
		if hs := bySeed[r.Seed]; len(hs) > 0 {
			b, h = append(b, r), append(h, hs[0])
			bySeed[r.Seed] = hs[1:]
		}
	}
	return b, h, len(base) + len(head) - 2*len(b)
}

// alternated reports whether the side that ran first flips from each
// pair to the next, in the order the pairs ran.
func alternated(b, h []result) bool {
	idx := make([]int, len(b))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return b[idx[x]].StartedNS < b[idx[y]].StartedNS })
	for k := 1; k < len(idx); k++ {
		i, j := idx[k-1], idx[k]
		if (b[i].StartedNS < h[i].StartedNS) == (b[j].StartedNS < h[j].StartedNS) {
			return false
		}
	}
	return true
}

func untraced(runs []result, workload string) []result {
	var out []result
	for _, r := range runs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func anyInvalid(runs []result) bool {
	for _, r := range runs {
		if !r.Valid {
			return true
		}
	}
	return false
}

// values returns each run's value of the named metric, and false when
// a run lacks it.
func values(runs []result, name string) ([]float64, bool) {
	out := make([]float64, len(runs))
	for i, r := range runs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil, false
		}
		out[i] = m.Value
	}
	return out, true
}

func failShare(runs []result) float64 {
	att, failed := 0, 0
	for _, r := range runs {
		att += r.Attempted
		failed += r.Failed
	}
	if att == 0 {
		return 0
	}
	return float64(failed) / float64(att)
}

// compareMain compares the untraced runs in two result files against
// the BENCHMARK.json in the working directory. It exits 1 when compare
// finds a problem.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare BASE.json HEAD.json")
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	base, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	head, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	if compare(sp, base, head, stdout) {
		return 1
	}
	return 0
}

// compare writes one row per workload × end-to-end metric and one
// failed-share row per workload. It reports a problem when a row
// regressed, the failed share grew, or data is missing: a workload or
// seed only one side ran, a workload neither side ran, or a metric a
// run lacks. Invalid runs turn any other verdict into unresolved.
func compare(sp spec, base, head resultFile, out io.Writer) (bad bool) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\thead median [q1, q3]\thead wins\tverdict")
	for _, w := range sp.Workloads {
		bAll, hAll := untraced(base.Runs, w.Name), untraced(head.Runs, w.Name)
		b, h, unpaired := pairRuns(bAll, hAll)
		invalid := anyInvalid(b) || anyInvalid(h)
		note := ""
		switch {
		case unpaired > 0:
			note, bad = fmt.Sprintf(" (%d of %d base and %d head runs unpaired)", unpaired, len(bAll), len(hAll)), true
		case invalid:
			note = " (invalid runs)"
		case !alternated(b, h):
			note = " (sides not alternated)"
		}
		for _, m := range sp.EndToEnd {
			bv, bok := values(b, m.Name)
			hv, hok := values(h, m.Name)
			if len(b) == 0 || !bok || !hok {
				bad = true
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d runs\t%d runs\t\t%s%s\n", w.Name, m.Name, m.Unit, len(bAll), len(hAll), missing, note)
				continue
			}
			v, wins := judge(bv, hv, m.Better == "lower", m.Bound)
			if invalid && v != regressed {
				v = unresolved
			}
			bad = bad || v == regressed
			bq1, bmed, bq3 := quartiles(bv)
			hq1, hmed, hq3 := quartiles(hv)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s%s\n",
				w.Name, m.Name, m.Unit, bmed, bq1, bq3, hmed, hq1, hq3, wins, len(b), v, note)
		}
		if len(b) == 0 {
			continue
		}
		bf, hf := failShare(b), failShare(h)
		verdict := "not grown"
		if hf > bf {
			verdict, bad = "GREW", true
		}
		fmt.Fprintf(tw, "%s\tfailed share\tratio\t%.4g\t%.4g\t\t%s\n", w.Name, bf, hf, verdict)
	}
	tw.Flush()
	return bad
}
