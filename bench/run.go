package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"recipemodel/internal/core"
)

// runConfig fixes how long each phase of a run lasts and how hard it
// pushes. main sets the benchmark's values; the smoke test shrinks them.
type runConfig struct {
	seed    int64
	measure time.Duration
	warmup  time.Duration
	// capacity is the length of the closed-loop capacity phase that
	// follows an open-loop measured phase.
	capacity time.Duration
	// rateScale multiplies every workload's offered rate.
	rateScale float64
	// boots is how many times set-up is measured; setup_s is the median.
	boots int
	conns int
	// replayMax caps the requests the traced replay sends.
	replayMax int
	// traceDir is where the traced replay writes its Chrome trace; empty
	// writes none.
	traceDir string
}

func newRunConfig(seed int64, seconds int, traceDir string) runConfig {
	return runConfig{
		seed:      seed,
		measure:   time.Duration(seconds) * time.Second,
		warmup:    2 * time.Second,
		capacity:  5 * time.Second,
		rateScale: 1,
		boots:     3,
		// Load comes from one process with at most nproc connections
		// and sender threads, capped at two so the traffic shape does
		// not change with the machine.
		conns:     min(2, runtime.NumCPU()),
		replayMax: 20000,
		traceDir:  traceDir,
	}
}

func (c runConfig) genParams(w workload, docs func() ([]*core.RecipeModel, error)) genParams {
	return genParams{seed: c.seed, rate: w.rate * c.rateScale, warmup: c.warmup, measure: c.measure, docs: docs}
}

const (
	// An open-loop run is invalid when the generator sends late by more
	// than maxGenLag at p99 or misses the offered rate by more than
	// maxRateError.
	maxGenLag    = 200 * time.Microsecond
	maxRateError = 0.01
)

func newResult(w workload, cfg runConfig, trace bool, fx *fixtures, st stream) *result {
	commit, dirty := commitFacts()
	return &result{
		Workload:  w.name,
		Seed:      cfg.seed,
		Seconds:   cfg.measure.Seconds(),
		Trace:     trace,
		StartedNS: time.Now().UnixNano(),
		Metrics:   map[string]metric{},
		Valid:     true,
		Info:      map[string]any{"connections": cfg.conns},
		Repro: repro{
			StreamSHA256:   st.digest(),
			BundleSHA256:   fx.bundleSHA,
			ManifestSHA256: fx.manifestSHA,
			Machine:        machineFacts(),
			Commit:         commit,
			Dirty:          dirty,
		},
	}
}

// boot starts the system n times, measuring set-up each time in
// seconds, and keeps the last instance running.
func boot(l launcher, n int) ([]float64, *target, error) {
	var setups []float64
	for b := 0; ; b++ {
		t, err := l.start()
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, t.setup.Seconds())
		if b == n-1 {
			return setups, t, nil
		}
		if err := t.stop(); err != nil {
			return nil, nil, fmt.Errorf("stop server after set-up: %w", err)
		}
	}
}

// probe is the server state read at an edge of the measured window.
type probe struct {
	cpu time.Duration
	rz  readyz
}

func takeProbe(t *target) (probe, error) {
	cpu, err := procCPU(t.pid)
	if err != nil {
		return probe{}, err
	}
	rz, _, err := getReadyz(t.addr)
	return probe{cpu: cpu, rz: rz}, err
}

type probes struct {
	at  []probe
	err error
}

// probeAt takes a probe at each start+offset from a side goroutine, so
// the load generator never waits on it.
func probeAt(t *target, start time.Time, offsets ...time.Duration) <-chan probes {
	ch := make(chan probes, 1)
	go func() {
		var p probes
		for _, off := range offsets {
			timer := time.NewTimer(time.Until(start.Add(off)))
			<-timer.C
			pr, err := takeProbe(t)
			p.at = append(p.at, pr)
			p.err = errors.Join(p.err, err)
		}
		ch <- p
	}()
	return ch
}

// measured is what the measured window's samples add up to.
type measured struct {
	// lat is each request's latency.
	lat     []time.Duration
	lags    []time.Duration
	n       int
	phrases int
	// dueSpan and sentSpan are the first-to-last due and send times;
	// their ratio is the achieved rate over the offered one.
	dueSpan, sentSpan time.Duration
}

// failedLatency stands in for the latency of a request that failed: it
// misses any latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// inWindow collects the samples due in [from, to).
func inWindow(reqs []request, samples []sample, from, to time.Duration) measured {
	var m measured
	var firstDue, lastDue, firstSent, lastSent time.Duration = -1, 0, -1, 0
	for _, s := range samples {
		if s.due < from || s.due >= to {
			continue
		}
		r := reqs[s.idx%len(reqs)]
		m.n++
		m.phrases += len(r.phrases)
		ok := s.err == nil && s.status >= 200 && s.status <= 299
		lat := failedLatency
		if ok {
			lat = s.latency()
		}
		m.lat = append(m.lat, lat)
		if s.err == nil || s.sent > 0 {
			m.lags = append(m.lags, s.lag())
			if firstSent < 0 || s.sent < firstSent {
				firstSent = s.sent
			}
			lastSent = max(lastSent, s.sent)
		}
		if firstDue < 0 || s.due < firstDue {
			firstDue = s.due
		}
		lastDue = max(lastDue, s.due)
	}
	m.dueSpan, m.sentSpan = lastDue-firstDue, lastSent-firstSent
	return m
}

// completed counts the requests answered with a 2xx in [from, to).
func completed(samples []sample, from, to time.Duration) int {
	n := 0
	for _, s := range samples {
		if s.err == nil && s.status >= 200 && s.status <= 299 && s.done >= from && s.done < to {
			n++
		}
	}
	return n
}

// runUntraced measures one workload end to end with tracing off. The
// in-process reference is loaded only after the server stops, and the
// heap is collected before set-up, so the benchmark's own memory and
// garbage collector stay out of the measured phases.
func runUntraced(w workload, cfg runConfig, fx *fixtures, l launcher) (*result, error) {
	st, err := w.gen(cfg.genParams(w, func() ([]*core.RecipeModel, error) {
		snap, err := loadSnapshot(fx.snapDir)
		if err != nil {
			return nil, err
		}
		return snap.Models, nil
	}))
	if err != nil {
		return nil, err
	}
	res := newResult(w, cfg, false, fx, st)
	runtime.GC()
	probe := startSpeedProbe()
	defer probe.finish()
	bootFrom := time.Now()
	setups, tgt, err := boot(l, cfg.boots)
	bootTo := time.Now()
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = tgt.stop()
		}
	}()

	var phases []phase
	var m measured
	// The measured phase spans [mFrom, mTo). The closed-loop phase that
	// measures capacity spans [capFrom, capTo) and completed capDone
	// requests.
	var mFrom, mTo, capFrom, capTo time.Time
	var capDone int
	var edges probes
	end := cfg.warmup + cfg.measure
	if w.rate > 0 {
		start := time.Now().Add(50 * time.Millisecond)
		mFrom, mTo = start.Add(cfg.warmup), start.Add(end)
		pc := probeAt(tgt, start, cfg.warmup, end)
		reloads := make(chan []sample, 1)
		go func() { reloads <- sendAt(tgt.addr, reloadRequest, st.reloads, start, start.Add(end+time.Minute)) }()
		samples, rt := openLoop(tgt.addr, st.open, st.due, st.lanes, cfg.conns, start, start.Add(end+time.Minute))
		res.Info["realtime_senders"] = rt
		edges = <-pc
		phases = append(phases, phase{st.open, samples})
		if rs := <-reloads; len(rs) > 0 {
			phases = append(phases, phase{[]request{reloadRequest}, rs})
			var rt []float64
			for _, s := range rs {
				rt = append(rt, ms(s.latency()))
			}
			res.Info["reload_corpus_ms_raw"] = rt
		}
		m = inWindow(st.open, samples, cfg.warmup, end)
		m.checkGenerator(res)

		capFrom = time.Now()
		capTo = capFrom.Add(cfg.capacity)
		capSamples, err := closedLoop(tgt.addr, st.closed, cfg.conns, capFrom, cfg.capacity, capTo.Add(time.Minute))
		if err != nil {
			return nil, err
		}
		phases = append(phases, phase{st.closed, capSamples})
		capDone = completed(capSamples, 0, cfg.capacity)
		res.Info["capacity_wrapped"] = len(capSamples) > len(st.closed)
	} else {
		start := time.Now()
		mFrom, mTo = start.Add(cfg.warmup), start.Add(end)
		pc := probeAt(tgt, start, cfg.warmup, end)
		samples, err := closedLoop(tgt.addr, st.closed, cfg.conns, start, end, start.Add(end+time.Minute))
		if err != nil {
			return nil, err
		}
		edges = <-pc
		phases = append(phases, phase{st.closed, samples})
		m = inWindow(st.closed, samples, cfg.warmup, end)
		capFrom, capTo = mFrom, mTo
		capDone = completed(samples, cfg.warmup, end)
	}
	if edges.err != nil {
		return nil, fmt.Errorf("probe server: %w", edges.err)
	}
	rss, err := peakRSS(tgt.pid)
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := tgt.stop(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	sp := probe.finish()
	if m.n == 0 {
		return nil, errors.New("no request fell in the measured window")
	}

	ref, err := loadReference(fx)
	if err != nil {
		return nil, err
	}
	v := (&oracle{ref: ref}).check(phases...)
	res.Attempted, res.Failed, res.Correct = v.attempted, v.failed, v.wrong == 0
	if v.firstProblem != "" {
		res.Info["first_failure"] = v.firstProblem
	}

	// Raw values, then the same at reference speed (see speed.go), each
	// scaled by the slowdown of the phase that produced it.
	before, after := edges.at[0], edges.at[1]
	raw := map[string]float64{
		"setup_s":        median(setups),
		"lat_p50_ms":     ms(percentile(m.lat, 0.50)),
		"lat_p90_ms":     ms(percentile(m.lat, 0.90)),
		"cpu_us_per_req": us(after.cpu-before.cpu) / float64(m.n),
		"capacity_rps":   float64(capDone) / capTo.Sub(capFrom).Seconds(),
	}
	slow := map[string]float64{
		"boot":     sp.slowdown(bootFrom, bootTo),
		"measured": sp.slowdown(mFrom, mTo),
		"capacity": sp.slowdown(capFrom, capTo),
	}
	capacity := raw["capacity_rps"] * slow["capacity"]
	res.set("setup_s", "s", raw["setup_s"]/slow["boot"])
	res.set("peak_rss_mb", "MB", rss)
	res.set("lat_p50_ms", "ms", raw["lat_p50_ms"]/slow["measured"])
	res.set("lat_p90_ms", "ms", raw["lat_p90_ms"]/slow["measured"])
	res.set("cpu_us_per_req", "us", raw["cpu_us_per_req"]/slow["measured"])
	res.set("capacity_rps", "req/s", capacity)

	info := res.Info
	info["slowdown"] = slow
	info["raw"] = raw
	info["setup_runs_raw_s"] = setups
	info["lat_samples"] = len(m.lat)
	// The highest percentiles with at least ten samples beyond them, raw.
	if len(m.lat) >= 1000 {
		info["lat_p99_ms_raw"] = ms(percentile(m.lat, 0.99))
	}
	if len(m.lat) >= 10000 {
		info["lat_p999_ms_raw"] = ms(percentile(m.lat, 0.999))
	}
	info["fail_frac"] = float64(v.failed) / float64(v.attempted)
	info["degraded_frac"] = float64(v.degraded) / float64(v.attempted)
	if m.phrases > 0 {
		info["phrases_per_s"] = capacity * float64(m.phrases) / float64(m.n)
		info["cache_hit_ratio"] = float64(after.rz.Cache.Hits-before.rz.Cache.Hits) / float64(m.phrases)
		info["decodes_per_kreq"] = 1000 * float64(after.rz.decodes()-before.rz.decodes()) / float64(m.n)
	}
	return res, nil
}

// checkGenerator records the open-loop generator's precision and marks
// the run invalid when the generator, not the server, shaped the load.
func (m measured) checkGenerator(res *result) {
	lag50, lag99 := percentile(m.lags, 0.50), percentile(m.lags, 0.99)
	res.Info["gen_lag_p50_ms"] = ms(lag50)
	res.Info["gen_lag_p99_ms"] = ms(lag99)
	achieved := 1.0
	if m.sentSpan > 0 {
		achieved = float64(m.dueSpan) / float64(m.sentSpan)
	}
	res.Info["achieved_over_offered_rate"] = achieved
	if lag99 > maxGenLag {
		res.Valid = false
		res.Invalid = append(res.Invalid, fmt.Sprintf("gen_lag p99 %.3f ms exceeds %.3f ms", ms(lag99), ms(maxGenLag)))
	}
	if math.Abs(achieved-1) > maxRateError {
		res.Valid = false
		res.Invalid = append(res.Invalid, fmt.Sprintf("achieved rate %.2f%% of offered", 100*achieved))
	}
}
