// Response writing for the annotate endpoints. /annotate and
// /annotate/batch answer with exactly the bytes encoding/json's
// indented encoder gives — json.MarshalIndent(v, "", "  ") plus a
// newline, which is what writeJSONStatus sends — so no client and no
// differential test sees a change. The bytes are built by hand instead:
// one append pass into a buffer sized from the response, with no
// reflection, no re-indenting pass over a compact encoding, and no
// per-slot envelope structs. TestResponseWriterMatchesEncodingJSON pins
// every byte to encoding/json (DESIGN §12, "Response writing").

package server

import (
	"net/http"
	"strconv"
	"unicode/utf8"

	"recipemodel/internal/core"
	"recipemodel/internal/quarantine"
)

// rulesTier is the fallback tier's label on degraded records and
// envelopes.
const rulesTier = "rules"

// slotBytes sizes response buffers: about what one record takes, or
// one batch slot with its status and indent (a 256-line batch-corpus
// response is 72,362 bytes); the batch envelope's own members take
// under 64 more. A longer response grows its buffer.
const slotBytes = 300

// sendJSON writes body, a complete newline-terminated JSON document,
// as the response under status, in one Write. A failed Write means the
// client went away after the status was sent; there is no one left to
// answer, so the error is dropped.
func sendJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeRecord answers one /annotate request with rec under status 200.
// A degraded record is the rules tier's answer: the degradation markers
// ("degraded": true, "tier": "rules") follow the record members.
func writeRecord(w http.ResponseWriter, rec *core.IngredientRecord, degraded bool) {
	b := append(make([]byte, 0, slotBytes), '{')
	b = appendRecordMembers(b, rec, "\n  ")
	if degraded {
		b = append(b, ",\n  \"degraded\": true,\n  \"tier\": \""+rulesTier+"\""...)
	}
	b = append(b, "\n}\n"...)
	sendJSON(w, http.StatusOK, b)
}

// writeBatchTier writes the /annotate/batch envelope
//
//	{"results": [...], "ok": n, "rejected": m[, "degraded": true, "tier": "rules"]}
//
// straight from the per-slot records and rejections: slot i is
// rejection k when rejs[k].Index == i (a later rejection of the same
// slot replaces an earlier one) and recs[i] otherwise, and every
// rejection is counted into the quarantine counters. rejected is
// len(rejs). A non-nil tiers labels slot i's serving tier (tiers[i] ""
// for CRF and cache slots) and marks the envelope degraded on the
// rules tier. The status is 200 when every slot annotated, 422 when
// none did, and 207 Multi-Status on a mix.
func (s *Server) writeBatchTier(w http.ResponseWriter, recs []core.IngredientRecord, rejs []quarantine.Rejection, tiers []string) {
	// rejAt[i] is 1 + the index in rejs of slot i's rejection; 0 for an
	// ok slot. Healthy batches carry no rejections and skip it.
	var rejAt []int
	if len(rejs) > 0 {
		rejAt = make([]int, len(recs))
		for k, rej := range rejs {
			s.quarantined.Observe(rej.Code)
			rejAt[rej.Index] = k + 1
		}
	}
	ok := len(recs) - len(rejs)
	status := http.StatusOK
	switch {
	case ok == 0:
		status = http.StatusUnprocessableEntity
	case len(rejs) > 0:
		status = http.StatusMultiStatus
	}

	b := append(make([]byte, 0, 64+slotBytes*len(recs)), "{\n  \"results\": ["...)
	for i := range recs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      \"status\": "...)
		if rejAt != nil && rejAt[i] > 0 {
			rej := &rejs[rejAt[i]-1]
			b = append(b, `"rejected"`...)
			if rej.Code != "" {
				b = append(b, ",\n      \"code\": "...)
				b = appendJSONString(b, string(rej.Code))
			}
			if rej.Detail != "" {
				b = append(b, ",\n      \"detail\": "...)
				b = appendJSONString(b, rej.Detail)
			}
		} else {
			b = append(b, "\"ok\",\n      \"record\": {"...)
			b = appendRecordMembers(b, &recs[i], "\n        ")
			b = append(b, "\n      }"...)
			if tiers != nil && tiers[i] != "" {
				b = append(b, ",\n      \"tier\": "...)
				b = appendJSONString(b, tiers[i])
			}
		}
		b = append(b, "\n    }"...)
	}
	if len(recs) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "],\n  \"ok\": "...)
	b = strconv.AppendInt(b, int64(ok), 10)
	b = append(b, ",\n  \"rejected\": "...)
	b = strconv.AppendInt(b, int64(len(rejs)), 10)
	if tiers != nil {
		b = append(b, ",\n  \"degraded\": true,\n  \"tier\": \""+rulesTier+"\""...)
	}
	b = append(b, "\n}\n"...)
	sendJSON(w, status, b)
}

// recordKeys are core.IngredientRecord's JSON member names, in struct
// order; the record has no json tags, so they are its field names.
var recordKeys = [...]string{"Phrase", "Name", "State", "Quantity", "Unit", "Temp", "DryFresh", "Size"}

// appendRecordMembers appends rec's members, each on a new line opened
// by nl ("\n" plus the members' indent), separated by commas, without
// the braces.
func appendRecordMembers(b []byte, rec *core.IngredientRecord, nl string) []byte {
	vals := [len(recordKeys)]string{rec.Phrase, rec.Name, rec.State, rec.Quantity, rec.Unit, rec.Temp, rec.DryFresh, rec.Size}
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, nl...)
		b = append(b, '"')
		b = append(b, recordKeys[i]...)
		b = append(b, `": `...)
		b = appendJSONString(b, v)
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string, escaped exactly
// as encoding/json escapes it with HTML escaping on (its default): '"'
// and '\\' backslashed; \b, \f, \n, \r and \t by name; other control
// bytes and '<', '>', '&' as \u00XX; each invalid UTF-8 byte as the
// six bytes \ufffd; U+2028 and U+2029 as \u2028 and \u2029. Every
// other byte is copied, including DEL.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
