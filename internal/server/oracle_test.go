package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"recipemodel/internal/core"
	"recipemodel/internal/quarantine"
)

// The annotate endpoints' reference shapes: encoding/json's indented
// encoding of these types, plus a newline, is the response body the
// server's hand-written writer (respond.go) must reproduce byte for
// byte. They live with the oracle, not the server, so the oracle shares
// no writer code with the endpoints it checks.

// batchItem is one per-phrase result in a /annotate/batch response:
// either an annotated record or a typed rejection. Item i answers
// phrase i.
type batchItem struct {
	Status string                 `json:"status"` // "ok" or "rejected"
	Record *core.IngredientRecord `json:"record,omitempty"`
	Code   quarantine.Code        `json:"code,omitempty"`
	Detail string                 `json:"detail,omitempty"`
	// Tier marks a record served by a fallback tier ("rules"); absent
	// on CRF-tier and cache-hit records, so healthy envelopes carry no
	// trace of the ladder.
	Tier string `json:"tier,omitempty"`
}

// batchResponse is the /annotate/batch payload: per-item statuses plus
// roll-up counts. The HTTP status follows the 207 Multi-Status idea:
// 200 when every phrase annotated, 207 on a mix, 422 when every phrase
// was rejected.
type batchResponse struct {
	Results  []batchItem `json:"results"`
	OK       int         `json:"ok"`
	Rejected int         `json:"rejected"`
	// Degraded/Tier mark an envelope with at least one slot answered
	// by a fallback tier (DESIGN §15); omitted on healthy responses.
	Degraded bool   `json:"degraded,omitempty"`
	Tier     string `json:"tier,omitempty"`
}

// tierRecord is the degraded /annotate payload: the rules-tier record
// with the degradation markers appended, so clients that only read
// the record fields parse both shapes identically.
type tierRecord struct {
	core.IngredientRecord
	Degraded bool   `json:"degraded"`
	Tier     string `json:"tier"`
}

// serialOracle is the reference the differential tests hold the
// annotate endpoints to: it answers req the plain way, decoding each
// phrase in order with a fresh countingPipe's AnnotateIngredientChecked
// and encoding the result with encoding/json — an indented record or
// batch envelope, or the compact 422 payload. It calls no Server
// method, so it shares no cache, flight, limiter, breaker or writer
// code with the ladder under test.
func serialOracle(t *testing.T, tag string, req chaosRequest) chaosResult {
	t.Helper()
	var in struct {
		Phrase  string   `json:"phrase"`
		Phrases []string `json:"phrases"`
	}
	if err := json.Unmarshal([]byte(req.body), &in); err != nil {
		t.Fatalf("oracle: %s body: %v", req.path, err)
	}
	pipe := &countingPipe{tag: tag}
	if req.path == "/annotate" {
		rec, err := pipe.AnnotateIngredientChecked(in.Phrase)
		if err != nil {
			rej := quarantine.Reject(0, in.Phrase, err)
			return chaosResult{http.StatusUnprocessableEntity, oracleJSON(t, map[string]string{
				"error":  "phrase rejected",
				"code":   string(rej.Code),
				"detail": rej.Detail,
			}, false)}
		}
		return chaosResult{http.StatusOK, oracleJSON(t, rec, true)}
	}
	resp := batchResponse{Results: make([]batchItem, len(in.Phrases))}
	for i, p := range in.Phrases {
		rec, err := pipe.AnnotateIngredientChecked(p)
		if err != nil {
			rej := quarantine.Reject(i, p, err)
			resp.Results[i] = batchItem{Status: "rejected", Code: rej.Code, Detail: rej.Detail}
			resp.Rejected++
			continue
		}
		resp.Results[i] = batchItem{Status: "ok", Record: &rec}
		resp.OK++
	}
	code := http.StatusOK
	switch {
	case resp.OK == 0:
		code = http.StatusUnprocessableEntity
	case resp.Rejected > 0:
		code = http.StatusMultiStatus
	}
	return chaosResult{code, oracleJSON(t, resp, true)}
}

// serialOracleAll answers every request of a mix with serialOracle.
func serialOracleAll(t *testing.T, tag string, reqs []chaosRequest) []chaosResult {
	t.Helper()
	out := make([]chaosResult, len(reqs))
	for i, req := range reqs {
		out[i] = serialOracle(t, tag, req)
	}
	return out
}

// oracleJSON encodes v plus a trailing newline, two-space indented
// when indent is set — the response framing of the annotate endpoints.
func oracleJSON(t *testing.T, v any, indent bool) string {
	t.Helper()
	var b []byte
	var err error
	if indent {
		b, err = json.MarshalIndent(v, "", "  ")
	} else {
		b, err = json.Marshal(v)
	}
	if err != nil {
		t.Fatalf("oracle: encode: %v", err)
	}
	return string(b) + "\n"
}
