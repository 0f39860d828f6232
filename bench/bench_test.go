package main

import (
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"recipemodel"
)

// inprocLauncher serves the reference's in-process server over
// httptest: the same handler stack as recipeserver, without a process.
type inprocLauncher struct{ ref *reference }

func (l inprocLauncher) start() (*target, error) {
	t0 := time.Now()
	ts := httptest.NewServer(l.ref.newServer(defaultShards))
	stop := func() error {
		ts.Close()
		return nil
	}
	return &target{addr: ts.Listener.Addr().String(), pid: os.Getpid(), setup: time.Since(t0), stop: stop}, nil
}

func names[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func specNames(ms []specMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, BENCHMARK.json has %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: got %v, BENCHMARK.json has %v", what, got, want)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, against
// an in-process server with a small model and a 50-document snapshot.
// It pins the output to BENCHMARK.json's names, requires the oracle to
// pass, and requires the replayed layers to reconcile with the handler.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var specWorkloads, codeWorkloads []string
	for _, w := range sp.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, w := range workloads {
		codeWorkloads = append(codeWorkloads, w.name)
	}
	sameNames(t, "workloads", codeWorkloads, specWorkloads)

	small := fixtureSpec{
		opts:       recipemodel.Options{Seed: 1, TrainingPhrases: 300, TrainingInstructions: 100, Epochs: 2, Method: "sgd"},
		docs:       50,
		corpusSeed: 2,
	}
	fx, err := buildFixtures(t.TempDir(), small)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := loadReference(fx)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{
		seed:      1,
		measure:   500 * time.Millisecond,
		warmup:    100 * time.Millisecond,
		capacity:  500 * time.Millisecond,
		rateScale: 0.25,
		boots:     1,
		conns:     2,
		replayMax: 200,
	}
	l := inprocLauncher{ref}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runUntraced(w, cfg, fx, l)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d (%v)", res.Correct, res.Attempted, res.Failed, res.Info["first_failure"])
			}
			sameNames(t, "end-to-end metrics", names(res.Metrics), specNames(sp.EndToEnd))

			res, err = runTraced(w, cfg, fx, l)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d (%v, drift %v)", res.Correct, res.Failed, res.Info["first_failure"], res.Info["config_drift"])
			}
			sameNames(t, "per-layer metrics", names(res.Metrics), specNames(sp.PerLayer))
			t.Logf("layers over handler: %.3f", res.Info["layers_over_handler"])
			if !res.Valid {
				t.Fatalf("traced run invalid: %v", res.Invalid)
			}
			if m := res.Metrics["trace.model_mismatch"].Value; m != 0 {
				t.Fatalf("%v replayed layer outputs differ from the server's", m)
			}
		})
	}
}

func TestSchedule(t *testing.T) {
	due := schedule(4, 1000)
	want := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	for i := range want {
		if due[i] != want[i] {
			t.Fatalf("schedule(4, 1000) = %v, want %v", due, want)
		}
	}
}

// TestWindowBookkeeping checks latency from the due time, generator lag,
// the measured window's bounds and failed requests.
func TestWindowBookkeeping(t *testing.T) {
	reqs := []request{{kind: kindAnnotate, phrases: []string{"x"}}}
	samples := []sample{
		{idx: 0, due: 0, sent: 0, done: time.Millisecond, status: 200}, // before the window
		{idx: 0, due: 10 * time.Millisecond, sent: 10*time.Millisecond + 50*time.Microsecond, done: 12 * time.Millisecond, status: 200},
		{idx: 0, due: 12 * time.Millisecond, sent: 12*time.Millisecond + 150*time.Microsecond, done: 13 * time.Millisecond, status: 503},
		{idx: 0, due: 20 * time.Millisecond, sent: 20 * time.Millisecond, done: 21 * time.Millisecond, status: 200}, // after the window
	}
	m := inWindow(reqs, samples, 10*time.Millisecond, 20*time.Millisecond)
	if m.n != 2 || m.phrases != 2 {
		t.Fatalf("n=%d phrases=%d, want 2 and 2", m.n, m.phrases)
	}
	if len(m.lat) != 2 || m.lat[0] != 2*time.Millisecond || m.lat[1] != failedLatency {
		t.Fatalf("latencies %v, want [2ms, failed]", m.lat)
	}
	if len(m.lags) != 2 || m.lags[0] != 50*time.Microsecond || m.lags[1] != 150*time.Microsecond {
		t.Fatalf("lags %v, want [50µs 150µs]", m.lags)
	}

	for _, tc := range []struct {
		lag               time.Duration
		dueSpan, sentSpan time.Duration
		valid             bool
	}{
		{lag: 100 * time.Microsecond, dueSpan: time.Second, sentSpan: time.Second, valid: true},
		{lag: 300 * time.Microsecond, dueSpan: time.Second, sentSpan: time.Second, valid: false},
		{lag: 100 * time.Microsecond, dueSpan: time.Second, sentSpan: 1020 * time.Millisecond, valid: false},
	} {
		res := &result{Valid: true, Info: map[string]any{}}
		measured{lags: []time.Duration{tc.lag}, dueSpan: tc.dueSpan, sentSpan: tc.sentSpan}.checkGenerator(res)
		if res.Valid != tc.valid {
			t.Errorf("lag %v, spans %v/%v: valid=%v (%v), want %v", tc.lag, tc.dueSpan, tc.sentSpan, res.Valid, res.Invalid, tc.valid)
		}
	}
}

func TestCompleted(t *testing.T) {
	samples := []sample{
		{status: 200, done: 100 * time.Millisecond},
		{status: 200, done: 900 * time.Millisecond},
		{status: 500, done: 500 * time.Millisecond},
		{status: 200, done: time.Second},
	}
	if got := completed(samples, 100*time.Millisecond, time.Second); got != 2 {
		t.Fatalf("completed = %d, want 2", got)
	}
}

// TestQuartiles pins the quartiles to Python's
// statistics.quantiles(xs, n=4), which the spread checks use.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 4}, 1, 4, 10},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name       string
		base, head []float64
		want       string
	}{
		{"same", base, base, unchanged},
		{"faster", base, shift(0.8), improved},
		{"slower beyond bound", base, shift(1.2), regressed},
		{"slower within bound", base, shift(1.05), unchanged},
		{"spread wider than bound", noisy, noisy, unresolved},
	} {
		if got, _ := judge(tc.base, tc.head, true, 0.1); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestReconcile(t *testing.T) {
	for _, tc := range []struct {
		share float64
		valid bool
	}{
		{0.5, true},   // layers cover half the handler; the rest is unattributed
		{-0.05, true}, // within the noise between the two executions
		{-0.2, false}, // the layers do work the server does not
	} {
		res := &result{Valid: true, Info: map[string]any{}}
		reconcile(res, tc.share)
		if res.Valid != tc.valid {
			t.Errorf("unattributed share %v: valid=%v (%v), want %v", tc.share, res.Valid, res.Invalid, tc.valid)
		}
	}
}

// TestCompare checks compare's exit condition: it holds on a clean
// comparison and fails on a regression, even among invalid runs, and on
// data one side lacks.
func TestCompare(t *testing.T) {
	sp := spec{EndToEnd: []specMetric{{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.1}}}
	sp.Workloads = append(sp.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	// side returns ten alternated runs of workload w, lat scaled by f.
	side := func(f float64, first bool) resultFile {
		var rf resultFile
		for i := 0; i < 10; i++ {
			started := int64(2 * i)
			if (i%2 == 0) != first {
				started++
			}
			rf.Runs = append(rf.Runs, result{
				Workload: "w", Seed: int64(i), StartedNS: started, Valid: true, Attempted: 100,
				Metrics: map[string]metric{"lat": {Value: f * (100 + float64(i%3)), Unit: "ms"}},
			})
		}
		return rf
	}
	for _, tc := range []struct {
		name   string
		edit   func(base, head *resultFile)
		bad    bool
		output string
	}{
		{"unchanged", func(base, head *resultFile) {}, false, "unchanged"},
		{"regressed", func(base, head *resultFile) { *head = side(1.2, false) }, true, "regressed"},
		{"regressed among invalid runs", func(base, head *resultFile) {
			*head = side(1.2, false)
			head.Runs[0].Valid = false
		}, true, "regressed (invalid runs)"},
		{"invalid runs", func(base, head *resultFile) { head.Runs[0].Valid = false }, false, "unresolved (invalid runs)"},
		{"head did not run", func(base, head *resultFile) { head.Runs = nil }, true, "missing"},
		{"neither side ran", func(base, head *resultFile) { base.Runs, head.Runs = nil, nil }, true, "missing"},
		{"head missed a seed", func(base, head *resultFile) { head.Runs = head.Runs[1:] }, true, "unpaired"},
		{"metric absent", func(base, head *resultFile) { delete(head.Runs[3].Metrics, "lat") }, true, "missing"},
		{"failures grew", func(base, head *resultFile) { head.Runs[0].Failed = 1 }, true, "GREW"},
	} {
		base, head := side(1, true), side(1, false)
		tc.edit(&base, &head)
		var out strings.Builder
		if bad := compare(sp, base, head, &out); bad != tc.bad || !strings.Contains(out.String(), tc.output) {
			t.Errorf("%s: bad=%v, want %v; output:\n%s", tc.name, bad, tc.bad, out.String())
		}
	}
}
