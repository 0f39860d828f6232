package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"recipemodel"
	"recipemodel/internal/core"
	"recipemodel/internal/index"
	"recipemodel/internal/persist"
	"recipemodel/internal/snapshot"
)

// The traced replay times each layer from outside the program. Every
// replayed request gets one ID and three timed parts: the round trip to
// the real server on one connection, an in-process ServeHTTP on a
// server.Server built with recipeserver's defaults, and the server's
// steps re-run by calling each layer's public function on the same
// input. A layer's self time is its span minus the spans of its
// grouped children; the handler time the layers do not cover is
// reported as server.unattributed_us. That is a residual between two
// executions of the request, the handler's and the layers', so it can
// dip below zero; reconcile bounds how far.

// group assigns a layer span to one of the additive per-request parts.
type group int

const (
	groupNone   group = iota // not part of the additive split
	groupDecode              // json.decode_us
	groupGuards              // guards.self_us: cache, flight, breaker, limiter
	groupWork                // work.self_us: the decode stack or the shard fan-out
	groupEncode              // json.encode_us
	numGroups
)

// span is one timed call.
type span struct {
	name   string
	req    int // request ID; -1 for census calls
	parent int // index of the parent span; -1 for a root
	group  group
	tid    int // Chrome-trace lane: 0 replay, 1 census, 10+k shard k
	start  time.Duration
	end    time.Duration
	// n is the calls (or pairs, or phrases) the span covers; unit
	// costs divide by it.
	n int
}

func (s span) dur() time.Duration { return s.end - s.start }

type tracer struct {
	base  time.Time
	spans []span
	req   int
	tid   int
}

func (t *tracer) now() time.Duration { return time.Since(t.base) }

func (t *tracer) begin(name string, parent int, g group, n int) int {
	t.spans = append(t.spans, span{name: name, req: t.req, parent: parent, group: g, tid: t.tid, start: t.now(), n: n})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].end = t.now() }

// selfTimes returns each span's duration minus its grouped children's.
// Ungrouped children (shard goroutines, the standalone Viterbi) overlap
// or repeat their parent's work and are not subtracted. spans holds a
// tracer's spans from index offset on, with parents among them.
func selfTimes(spans []span, offset int) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.parent >= offset && s.group != groupNone {
			self[s.parent-offset] -= s.dur()
		}
	}
	return self
}

// layerCost accumulates one layer's time over its calls.
type layerCost struct {
	d time.Duration
	n int
}

func (c layerCost) perCall() float64 {
	if c.n == 0 {
		return 0
	}
	return us(c.d) / float64(c.n)
}

// costsByName sums each span name's self time and calls.
func costsByName(spans []span) map[string]layerCost {
	self := selfTimes(spans, 0)
	out := map[string]layerCost{}
	for i, s := range spans {
		c := out[s.name]
		c.d += self[i]
		c.n += s.n
		out[s.name] = c
	}
	return out
}

// perRequest is the additive split of one replayed request.
type perRequest struct {
	rt, handler time.Duration
	groups      [numGroups]time.Duration
}

func (p perRequest) unattributed() time.Duration {
	d := p.handler
	for g := groupDecode; g < numGroups; g++ {
		d -= p.groups[g]
	}
	return d
}

// runTraced replays the workload's stream serially with every layer
// timed and reports per-layer metrics.
func runTraced(w workload, cfg runConfig, fx *fixtures, l launcher) (*result, error) {
	ref, err := loadReference(fx)
	if err != nil {
		return nil, err
	}
	st, err := w.gen(cfg.genParams(w, func() ([]*core.RecipeModel, error) { return ref.snap.Models, nil }))
	if err != nil {
		return nil, err
	}
	res := newResult(w, cfg, true, fx, st)
	reqs := append(append([]request(nil), st.open...), st.closed...)
	tgt, err := l.start()
	if err != nil {
		return nil, err
	}
	defer tgt.stop()
	srv := ref.newServer(defaultShards)
	m, corpusBuild := newMirror(ref)
	base := time.Now()
	census := m.census(base)

	conn, err := net.Dial("tcp", tgt.addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	send := func(r request) (int, []byte, error) {
		if _, err := conn.Write(r.wire); err != nil {
			return 0, nil, err
		}
		return readResponse(br)
	}

	rzBefore, _, err := getReadyz(tgt.addr)
	if err != nil {
		return nil, err
	}
	// The untraced pass for the overhead replays the next requests of
	// the stream, so the traced pass takes at most half of it.
	rp := &replay{tr: &tracer{base: base}, units: map[string]bool{}}
	deadline := time.Now().Add(cfg.measure)
	for i := 0; i < min(cfg.replayMax, len(reqs)/2) && time.Now().Before(deadline); i++ {
		rp.request(i, reqs[i], send, srv, m)
	}
	traced := len(rp.per)
	if traced == 0 {
		return nil, fmt.Errorf("traced replay sent no request")
	}
	rzAfter, _, err := getReadyz(tgt.addr)
	if err != nil {
		return nil, err
	}
	drift, err := configDrift(tgt.addr, srv)
	if err != nil {
		return nil, err
	}

	// The same number of following requests, untraced, for the tracing
	// overhead; bounded to a third of the run.
	var plain []time.Duration
	plainDeadline := time.Now().Add(cfg.measure / 3)
	for i := traced; i < min(2*traced, len(reqs)) && time.Now().Before(plainDeadline); i++ {
		t0 := time.Now()
		status, body, err := send(reqs[i])
		plain = append(plain, time.Since(t0))
		rp.samples = append(rp.samples, sample{idx: i, status: status, body: body, err: err})
	}

	setup, err := setupCosts(ref, tgt.addr)
	if err != nil {
		return nil, err
	}
	setup["corpus.build_ms"] = ms(corpusBuild)

	v := (&oracle{ref: ref}).check(phase{reqs, rp.samples})
	res.Attempted, res.Failed = v.attempted, v.failed
	res.Correct = v.wrong == 0 && len(drift) == 0
	if v.firstProblem != "" {
		res.Info["first_failure"] = v.firstProblem
	}
	if len(drift) > 0 {
		res.Info["config_drift"] = drift
	}

	rp.setSplit(res, plain)
	setUnitCosts(res, costsByName(rp.tr.spans), costsByName(census))
	if rp.wn == 0 {
		rp.w1, rp.wn = partialSpeedup(m, censusPhrases(ref, batchSize))
	}
	res.set("parallel.speedup", "ratio", float64(rp.w1)/float64(rp.wn))
	lookups, inputs := max(rp.phrases, 1), rp.phrases
	if inputs == 0 {
		inputs = traced
	}
	res.set("cache.hit_ratio", "ratio", float64(rzAfter.Cache.Hits-rzBefore.Cache.Hits)/float64(lookups))
	res.set("decodes_per_kreq", "count", 1000*float64(rzAfter.decodes()-rzBefore.decodes())/float64(traced))
	res.set("input.unique_ratio", "ratio", float64(len(rp.units))/float64(inputs))
	for name, v := range setup {
		res.set(name, "ms", v)
	}
	res.set("trace.model_mismatch", "count", float64(m.mismatches))
	res.Info["traced_requests"] = traced
	res.Info["untraced_requests"] = len(plain)

	if cfg.traceDir != "" {
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, cfg.seed))
		for i := range census {
			if census[i].parent >= 0 {
				census[i].parent += len(rp.tr.spans)
			}
		}
		if err := writeChromeTrace(path, append(rp.tr.spans, census...)); err != nil {
			return nil, err
		}
		res.Info["chrome_trace"] = path
	}
	return res, nil
}

// replay is what the traced pass collects.
type replay struct {
	tr      *tracer
	per     []perRequest
	samples []sample
	// phrases counts the annotate inputs sent; units the distinct ones
	// (or distinct bodies, for queries).
	phrases int
	units   map[string]bool
	// w1 and wn time batch decodes on one worker and on every CPU.
	w1, wn time.Duration
}

// request replays request i: the round trip to the real server, the
// in-process handler, then the layers, all under one request span.
func (rp *replay) request(i int, r request, send func(request) (int, []byte, error), srv http.Handler, m *mirror) {
	tr := rp.tr
	tr.req = i
	first := len(tr.spans)
	root := tr.begin("request", -1, groupNone, 1)
	h := tr.begin("http", root, groupNone, 1)
	status, body, err := send(r)
	tr.end(h)
	hreq := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	rec := httptest.NewRecorder()
	sh := tr.begin("server.handler", root, groupNone, 1)
	srv.ServeHTTP(rec, hreq)
	tr.end(sh)
	ly := tr.begin("layers", root, groupNone, 1)
	replayed := m.serve(tr, ly, r)
	tr.end(ly)
	tr.end(root)
	if err == nil && !bytes.Equal(replayed, body) {
		m.mismatches++
	}
	rp.samples = append(rp.samples, sample{idx: i, status: status, body: body, err: err})

	p := perRequest{rt: tr.spans[h].dur(), handler: tr.spans[sh].dur()}
	self := selfTimes(tr.spans[first:], first)
	for j, s := range tr.spans[first:] {
		if s.group != groupNone {
			p.groups[s.group] += self[j]
		}
	}
	rp.per = append(rp.per, p)
	rp.phrases += len(r.phrases)
	for _, ph := range r.phrases {
		rp.units[ph] = true
	}
	if r.phrases == nil {
		rp.units[string(r.body)] = true
	}
	if r.kind == kindBatch && i < 8 {
		w1, wn := partialSpeedup(m, r.phrases)
		rp.w1, rp.wn = rp.w1+w1, rp.wn+wn
	}
}

// setSplit reports the additive per-request split as means, and the
// tracing overhead against the untraced round trips plain.
func (rp *replay) setSplit(res *result, plain []time.Duration) {
	var mean perRequest
	var rts []time.Duration
	for _, p := range rp.per {
		mean.rt += p.rt
		mean.handler += p.handler
		for g := range p.groups {
			mean.groups[g] += p.groups[g]
		}
		rts = append(rts, p.rt)
	}
	avg := func(d time.Duration) float64 { return us(d) / float64(len(rp.per)) }
	res.set("trace.round_trip_us", "us", avg(mean.rt))
	res.set("http.self_us", "us", avg(mean.rt-mean.handler))
	res.set("server.handler_us", "us", avg(mean.handler))
	res.set("json.decode_us", "us", avg(mean.groups[groupDecode]))
	res.set("guards.self_us", "us", avg(mean.groups[groupGuards]))
	res.set("work.self_us", "us", avg(mean.groups[groupWork]))
	res.set("json.encode_us", "us", avg(mean.groups[groupEncode]))
	res.set("server.unattributed_us", "us", avg(mean.unattributed()))
	share := float64(mean.unattributed()) / float64(mean.handler)
	res.set("server.unattributed_share", "ratio", share)
	res.set("trace.overhead_us", "us", us(percentile(rts, 0.5)-percentile(plain, 0.5)))
	reconcile(res, share)
}

// maxLayerExcess is how far the replayed layers may take longer than the
// in-process handler. The two are separate executions of each request,
// so their difference carries some noise either way; beyond this, the
// layers do work the server does not, and their times no longer
// describe it.
const maxLayerExcess = 0.10

// reconcile marks a traced result invalid when the layers' time exceeds
// the handler's, unattributedShare being (handler − layers) / handler,
// by more than maxLayerExcess. Layers that cover less than the handler
// are not a fault: the rest is reported as server.unattributed_us.
func reconcile(res *result, unattributedShare float64) {
	res.Info["layers_over_handler"] = 1 - unattributedShare
	if unattributedShare < -maxLayerExcess {
		res.Valid = false
		res.Invalid = append(res.Invalid, fmt.Sprintf("the replayed layers take %.0f%% longer than the in-process handler (limit %.0f%%)", -100*unattributedShare, 100*maxLayerExcess))
	}
}

// setUnitCosts reports each layer's cost per call: from the replay where
// the workload calls the layer, otherwise from the census.
func setUnitCosts(res *result, costs, census map[string]layerCost) {
	cost := func(name string) layerCost {
		if c := costs[name]; c.n > 0 {
			return c
		}
		return census[name]
	}
	for _, u := range []struct{ metric, span string }{
		{"core.sanitize_us", "core.sanitize"},
		{"tokenize_us", "tokenize"},
		{"crf.viterbi_us", "crf.viterbi"},
		{"core.record_us", "core.record"},
		{"cache.get_us", "cache.get"},
		{"cache.put_us", "cache.put"},
		{"flight.do_us", "flight.do"},
		{"limiter.acquire_us", "limiter.acquire"},
		{"breaker.acquire_us", "breaker.acquire"},
		{"core.partial_us_per_phrase", "core.partial"},
		{"similarity.score_us", "similarity.score"},
		{"similarity.topk_us", "similarity.topk"},
		{"similarity.merge_us", "similarity.merge"},
		{"index.search_us", "index.search"},
	} {
		res.set(u.metric, "us", cost(u.span).perCall())
	}
	res.set("ner.features_us", "us", cost("ner.predict").perCall()-cost("crf.viterbi").perCall())
	res.set("query.shard_parallelism", "ratio", float64(cost("query.shard").d)/float64(cost("query.fanout").d))
}

// setupCosts times the boot and reload layers: bundle load (including
// compilation), snapshot load, the boot-time /search mining, and the
// real server's corpus reload round trip.
func setupCosts(ref *reference, addr string) (map[string]float64, error) {
	out := map[string]float64{}
	t0 := time.Now()
	st, err := persist.OpenStore(ref.fx.storeDir)
	if err != nil {
		return nil, err
	}
	if _, _, _, err := st.Load(); err != nil {
		return nil, err
	}
	out["persist.load_bundle_ms"] = ms(time.Since(t0))

	t0 = time.Now()
	sst, err := snapshot.OpenStore(ref.fx.snapDir)
	if err != nil {
		return nil, err
	}
	if _, err := sst.Load(context.Background()); err != nil {
		return nil, err
	}
	out["snapshot.load_ms"] = ms(time.Since(t0))

	t0 = time.Now()
	index.New(ref.pipe.ModelRecipes(recipemodel.Inputs(recipemodel.SyntheticRecipes(200, 1)), runtime.NumCPU()))
	out["boot.search_index_ms"] = ms(time.Since(t0))

	t0 = time.Now()
	status, _, err := roundTrip(addr, reloadRequest, t0.Add(time.Minute))
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("corpus reload answered %d", status)
	}
	out["reload.corpus_ms"] = ms(time.Since(t0))
	return out, nil
}

// configDrift compares the config blocks of the real server's /readyz
// with the in-process copy's, after both served the same requests.
func configDrift(addr string, srv http.Handler) ([]string, error) {
	_, realBody, err := getReadyz(addr)
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var real, local map[string]any
	if err := json.Unmarshal(realBody, &real); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &local); err != nil {
		return nil, err
	}
	var drift []string
	for _, path := range []string{"model", "cache.enabled", "cache.entries", "tiers.enabled", "tiers.route_enabled", "corpus.enabled", "corpus.docs", "corpus.shards_total"} {
		if a, b := lookupPath(real, path), lookupPath(local, path); !reflect.DeepEqual(a, b) {
			drift = append(drift, fmt.Sprintf("%s: recipeserver %v, in-process copy %v", path, a, b))
		}
	}
	return drift, nil
}

func lookupPath(v any, path string) any {
	for _, k := range strings.Split(path, ".") {
		m, ok := v.(map[string]any)
		if !ok {
			return nil
		}
		v = m[k]
	}
	return v
}

// writeChromeTrace writes spans in the Chrome trace-event format
// (chrome://tracing, Perfetto): one complete event per span, lanes by
// tid, with the request ID and parent span name in args.
func writeChromeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		parent := ""
		if s.parent >= 0 {
			parent = spans[s.parent].name
		}
		ev, _ := json.Marshal(map[string]any{
			"name": s.name, "ph": "X", "pid": 1, "tid": s.tid,
			"ts": us(s.start), "dur": us(s.dur()),
			"args": map[string]any{"req": s.req, "parent": parent, "n": s.n},
		})
		w.Write(ev)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
