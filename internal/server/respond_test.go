package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"recipemodel/internal/core"
	"recipemodel/internal/quarantine"
	"recipemodel/internal/recipedb"
)

// edgeStrings are the inputs where a hand-written JSON string encoder
// can drift from encoding/json: HTML metacharacters, quotes and
// backslashes, every control byte and DEL, invalid UTF-8 (stray
// continuation bytes, truncated sequences, overlongs, surrogates,
// out-of-range code points), the JavaScript line terminators U+2028
// and U+2029, invisible but valid runes (NBSP, ZWSP, BOM), multi-byte
// text, and the empty string.
func edgeStrings() []string {
	var ctl strings.Builder
	for c := 0; c < 0x20; c++ {
		ctl.WriteByte(byte(c))
	}
	ctl.WriteByte(0x7f)
	r := func(cp rune) string { return string(cp) }
	return []string{
		"",
		"2 cups chopped onion",
		"<b>salt & pepper</b> > 1",
		`say "hi" \ back\\slash \u0041 /`,
		ctl.String(),
		"tab\there\nnew line\r\bback\fform",
		"\xff", "a\xc3", "\xc3(", "\xe2\x80", "\xc0\xaf", "\xed\xa0\x80", "\xf4\x90\x80\x80", "ok\x80mid\xbfend",
		"line" + r(0x2028) + "para" + r(0x2029) + "end",
		"1" + r(0x00a0) + "cup" + r(0x200b) + "milk" + r(0xfeff),
		"jalape" + r(0x00f1) + "o " + r(0x1f336) + " " + r(0x6c34) + " " + r(0xfffd),
		strings.Repeat("<&>", 40) + strings.Repeat("x", 300),
	}
}

// fillRecord sets every string field of core.IngredientRecord, found by
// reflection, to v with the field's name appended, so a field the
// writer does not know about shows up in encoding/json's output and
// not in the writer's.
func fillRecord(v string) core.IngredientRecord {
	var rec core.IngredientRecord
	rv := reflect.ValueOf(&rec).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.Kind() == reflect.String {
			f.SetString(v + rv.Type().Field(i).Name)
		}
	}
	return rec
}

// corpusRecords are gold ingredient records from both simulated
// sources, shaped as the endpoints serve them.
func corpusRecords(n int) []core.IngredientRecord {
	var out []core.IngredientRecord
	for _, src := range []recipedb.Source{recipedb.SourceAllRecipes, recipedb.SourceFoodCom} {
		for _, p := range recipedb.NewGenerator(src, 7).IngredientPhrases(n) {
			out = append(out, core.IngredientRecord{
				Phrase: p.Text, Name: p.Name, State: p.State, Quantity: p.Quantity,
				Unit: p.Unit, Temp: p.Temp, DryFresh: p.DryFresh, Size: p.Size,
			})
		}
	}
	return out
}

// referenceBatch builds the /annotate/batch reference envelope the way
// the endpoint's contract states it: every slot ok with its record and
// tier, then each rejection replacing its slot in order, rejected =
// len(rejs), and the 200/207/422 status; a non-nil tiers marks the
// envelope degraded on the rules tier.
func referenceBatch(recs []core.IngredientRecord, rejs []quarantine.Rejection, tiers []string) (int, batchResponse) {
	resp := batchResponse{Results: make([]batchItem, len(recs))}
	for i := range recs {
		rec := recs[i]
		resp.Results[i] = batchItem{Status: "ok", Record: &rec}
		if tiers != nil {
			resp.Results[i].Tier = tiers[i]
		}
	}
	for _, rej := range rejs {
		resp.Results[rej.Index] = batchItem{Status: "rejected", Code: rej.Code, Detail: rej.Detail}
	}
	resp.Rejected = len(rejs)
	resp.OK = len(recs) - resp.Rejected
	if tiers != nil {
		resp.Degraded, resp.Tier = true, rulesTier
	}
	switch {
	case resp.OK == 0:
		return http.StatusUnprocessableEntity, resp
	case resp.Rejected > 0:
		return http.StatusMultiStatus, resp
	}
	return http.StatusOK, resp
}

// checkResponse compares a written response with the reference status
// and encoding/json bytes.
func checkResponse(t *testing.T, name string, w *httptest.ResponseRecorder, code int, want string) {
	t.Helper()
	if w.Code != code {
		t.Errorf("%s: status %d, want %d", name, w.Code, code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", name, ct)
	}
	if got := w.Body.String(); got != want {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Errorf("%s: writer diverges from encoding/json at byte %d:\nwriter: %q\njson:   %q",
			name, i, got[i:min(len(got), i+80)], want[i:min(len(want), i+80)])
	}
}

// TestResponseWriterMatchesEncodingJSON pins the annotate endpoints'
// hand-written writer to encoding/json: every single record (healthy
// and degraded) and every batch envelope (healthy, mixed, all
// rejected, degraded, empty) must be byte-identical to MarshalIndent
// of the reference shapes plus a newline — the bytes writeJSONStatus
// sent before the writer existed. Records are filled field by field
// through reflection, so a field added to core.IngredientRecord fails
// here until the writer learns it.
func TestResponseWriterMatchesEncodingJSON(t *testing.T) {
	if n := reflect.TypeOf(core.IngredientRecord{}).NumField(); n != len(recordKeys) {
		t.Fatalf("core.IngredientRecord has %d fields, the writer knows %d (%v)", n, len(recordKeys), recordKeys)
	}
	recs := corpusRecords(40)
	for _, e := range edgeStrings() {
		recs = append(recs, fillRecord(e), core.IngredientRecord{Phrase: e, Name: e})
	}
	recs = append(recs, core.IngredientRecord{})

	for i := range recs {
		rec := recs[i]
		w := httptest.NewRecorder()
		writeRecord(w, &rec, false)
		checkResponse(t, fmt.Sprintf("record %d", i), w, http.StatusOK, oracleJSON(t, rec, true))

		w = httptest.NewRecorder()
		writeRecord(w, &rec, true)
		checkResponse(t, fmt.Sprintf("degraded record %d", i), w, http.StatusOK,
			oracleJSON(t, tierRecord{IngredientRecord: rec, Degraded: true, Tier: rulesTier}, true))
	}

	edges := edgeStrings()
	rejectAt := func(i int) quarantine.Rejection {
		switch i % 4 {
		case 0:
			return quarantine.Reject(i, edges[i%len(edges)], quarantine.ErrEmptyAfterClean)
		case 1:
			return quarantine.Reject(i, edges[i%len(edges)], fmt.Errorf("untyped %s", edges[i%len(edges)]))
		case 2:
			return quarantine.Rejection{Index: i, Code: quarantine.Code(edges[i%len(edges)]), Detail: edges[(i+1)%len(edges)]}
		}
		return quarantine.Rejection{Index: i} // no code, no detail: both omitted
	}
	everyThird := func(n int) []quarantine.Rejection {
		var rejs []quarantine.Rejection
		for i := 0; i < n; i += 3 {
			rejs = append(rejs, rejectAt(i))
		}
		return rejs
	}
	allRejected := func(n int) []quarantine.Rejection {
		rejs := make([]quarantine.Rejection, n)
		for i := range rejs {
			rejs[i] = rejectAt(i)
		}
		return rejs
	}
	ruleSlots := func(n int) []string {
		tiers := make([]string, n)
		for i := range tiers {
			if i%2 == 1 {
				tiers[i] = rulesTier
			}
		}
		return tiers
	}
	n := len(recs)
	twice := []quarantine.Rejection{rejectAt(2), rejectAt(6)}
	twice[1].Index = 2 // a second rejection of slot 2 replaces the first
	cases := []struct {
		name  string
		recs  []core.IngredientRecord
		rejs  []quarantine.Rejection
		tiers []string
	}{
		{"healthy", recs, nil, nil},
		{"one slot", recs[:1], nil, nil},
		{"empty", []core.IngredientRecord{}, nil, nil},
		{"mixed", recs, everyThird(n), nil},
		{"all rejected", recs[:12], allRejected(12), nil},
		{"rejected out of order", recs[:6], []quarantine.Rejection{rejectAt(5), rejectAt(0), rejectAt(2)}, nil},
		{"slot rejected twice", recs[:4], twice, nil},
		{"degraded", recs, nil, ruleSlots(n)},
		{"degraded mixed", recs, everyThird(n), ruleSlots(n)},
		{"degraded no rules slot", recs[:5], everyThird(5), make([]string, 5)},
		{"degraded all rejected", recs[:3], allRejected(3), ruleSlots(3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(fakePipe{}, nil)
			w := httptest.NewRecorder()
			s.writeBatchTier(w, tc.recs, tc.rejs, tc.tiers)
			code, resp := referenceBatch(tc.recs, tc.rejs, tc.tiers)
			checkResponse(t, tc.name, w, code, oracleJSON(t, resp, true))
			if got := s.quarantined.Total(); got != int64(len(tc.rejs)) {
				t.Errorf("quarantined %d, want %d", got, len(tc.rejs))
			}
		})
	}
}

// FuzzAppendJSONString holds the string encoder to json.Marshal (HTML
// escaping on) over arbitrary bytes.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range edgeStrings() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, json.Marshal = %s", s, got, want)
		}
	})
}
