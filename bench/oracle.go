package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"

	"recipemodel/internal/core"
	"recipemodel/internal/parallel"
	"recipemodel/internal/server"
)

// The oracle checks responses after timing ends, never during it.
// Annotations must equal the in-process core.Pipeline record built from
// the same bundle; query results must be byte-equal to an in-process
// single-shard server over the same snapshot (shard count is invisible
// in result bytes).

// annotateBody is an /annotate response: the record, plus the markers a
// fallback tier adds.
type annotateBody struct {
	core.IngredientRecord
	Degraded bool `json:"degraded"`
}

type batchBody struct {
	Results []struct {
		Status string                 `json:"status"`
		Record *core.IngredientRecord `json:"record"`
		Tier   string                 `json:"tier"`
	} `json:"results"`
	Degraded bool `json:"degraded"`
}

type queryBody struct {
	Snapshot     string          `json:"snapshot"`
	ShardsTotal  int             `json:"shards_total"`
	ShardsServed int             `json:"shards_served"`
	Degraded     bool            `json:"degraded"`
	Results      json.RawMessage `json:"results"`
}

// phase pairs the samples of one load phase with the requests they
// were drawn from (sample idx modulo len(reqs)).
type phase struct {
	reqs    []request
	samples []sample
}

// verdict is the oracle's tally over every sample it was given.
type verdict struct {
	attempted int
	// failed counts transport errors plus wrong answers; wrong counts
	// only the answers (non-2xx or a mismatch with the reference).
	failed, wrong int
	degraded      int
	firstProblem  string
}

func (v *verdict) fail(wrong bool, format string, args ...any) {
	v.failed++
	if wrong {
		v.wrong++
	}
	if v.firstProblem == "" {
		v.firstProblem = fmt.Sprintf(format, args...)
	}
}

type oracle struct {
	ref *reference
	// single is the one-shard reference server for query bodies,
	// built on first use.
	single *server.Server
}

// check verifies every sample of the phases.
func (o *oracle) check(phases ...phase) verdict {
	var v verdict
	want := o.expectRecords(phases)
	wantQuery := o.expectQueries(phases)
	for _, ph := range phases {
		// A body is kept for the first serving of a request; a repeat
		// keeps only a fingerprint, which must match the first serving's.
		okFP := map[int]uint64{}
		for _, s := range ph.samples {
			v.attempted++
			if s.err != nil {
				v.fail(false, "request %d: %v", s.idx, s.err)
				continue
			}
			if s.status < 200 || s.status > 299 {
				v.fail(true, "request %d: status %d", s.idx, s.status)
				continue
			}
			if s.body == nil {
				continue
			}
			base := s.idx % len(ph.reqs)
			deg, problem := o.checkBody(ph.reqs[base], s.body, want, wantQuery)
			if deg {
				v.degraded++
			}
			if problem != "" {
				v.fail(true, "request %d (%s): %s", s.idx, ph.reqs[base].path, problem)
				continue
			}
			okFP[base] = s.fp
		}
		for _, s := range ph.samples {
			if s.err != nil || s.body != nil || s.status < 200 || s.status > 299 {
				continue
			}
			if fp, ok := okFP[s.idx%len(ph.reqs)]; !ok || fp != s.fp {
				v.fail(true, "request %d: body differs from its verified first serving", s.idx)
			}
		}
	}
	return v
}

// expectRecords annotates, on every CPU, each distinct phrase a kept
// body must answer.
func (o *oracle) expectRecords(phases []phase) map[string]core.IngredientRecord {
	seen := map[string]bool{}
	var phrases []string
	for _, ph := range phases {
		for _, s := range ph.samples {
			if s.body == nil {
				continue
			}
			for _, p := range ph.reqs[s.idx%len(ph.reqs)].phrases {
				if !seen[p] {
					seen[p] = true
					phrases = append(phrases, p)
				}
			}
		}
	}
	recs := o.ref.pipe.AnnotateIngredients(phrases, runtime.NumCPU())
	want := make(map[string]core.IngredientRecord, len(phrases))
	for i, p := range phrases {
		want[p] = recs[i]
	}
	return want
}

// expectQueries asks the single-shard reference server, on every CPU,
// for the results of each distinct query body a kept body must answer.
func (o *oracle) expectQueries(phases []phase) map[string]json.RawMessage {
	seen := map[string]bool{}
	var reqs []request
	for _, ph := range phases {
		for _, s := range ph.samples {
			r := ph.reqs[s.idx%len(ph.reqs)]
			if s.body == nil || !r.kind.query() || seen[string(r.wire)] {
				continue
			}
			seen[string(r.wire)] = true
			reqs = append(reqs, r)
		}
	}
	if len(reqs) == 0 {
		return nil
	}
	if o.single == nil {
		o.single = o.ref.newServer(1)
	}
	bodies := parallel.MapOrdered(runtime.NumCPU(), reqs, func(_ int, r request) json.RawMessage {
		rec := httptest.NewRecorder()
		o.single.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
		var q queryBody
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &q) != nil {
			return nil
		}
		return q.Results
	})
	want := make(map[string]json.RawMessage, len(reqs))
	for i, r := range reqs {
		want[string(r.wire)] = bodies[i]
	}
	return want
}

// checkBody reports whether body carries a degradation marker and, if
// it is wrong, why.
func (o *oracle) checkBody(r request, body []byte, want map[string]core.IngredientRecord, wantQuery map[string]json.RawMessage) (degraded bool, problem string) {
	switch r.kind {
	case kindAnnotate:
		var b annotateBody
		if err := json.Unmarshal(body, &b); err != nil {
			return false, err.Error()
		}
		if exp := want[r.phrases[0]]; b.IngredientRecord != exp {
			return b.Degraded, fmt.Sprintf("record %+v, reference %+v", b.IngredientRecord, exp)
		}
		return b.Degraded, ""
	case kindBatch:
		var b batchBody
		if err := json.Unmarshal(body, &b); err != nil {
			return false, err.Error()
		}
		if len(b.Results) != len(r.phrases) {
			return b.Degraded, fmt.Sprintf("%d results for %d phrases", len(b.Results), len(r.phrases))
		}
		for i, res := range b.Results {
			if res.Status != "ok" || res.Record == nil || *res.Record != want[r.phrases[i]] {
				return b.Degraded, fmt.Sprintf("slot %d (%q) differs from the reference", i, r.phrases[i])
			}
		}
		return b.Degraded, ""
	case kindReload:
		var b struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(body, &b); err != nil || b.Status != "ok" {
			return false, "corpus reload not ok: " + string(body)
		}
		return false, ""
	default:
		var b queryBody
		if err := json.Unmarshal(body, &b); err != nil {
			return false, err.Error()
		}
		switch exp := wantQuery[string(r.wire)]; {
		case b.Snapshot != o.ref.snap.Version:
			return b.Degraded, fmt.Sprintf("served snapshot %q, reference %q", b.Snapshot, o.ref.snap.Version)
		case b.Degraded || b.ShardsServed != b.ShardsTotal:
			return true, fmt.Sprintf("partial result: %d of %d shards", b.ShardsServed, b.ShardsTotal)
		case exp == nil || !bytes.Equal(b.Results, exp):
			return false, "results differ from the single-shard reference"
		}
		return false, ""
	}
}
