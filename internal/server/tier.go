// The tiered annotation ladder (DESIGN §15). Annotation requests
// resolve through four rungs, cheapest-healthy first:
//
//	CRF tier  →  cache hot-set  →  rules tier  →  shed
//
// A circuit breaker (internal/breaker) watches CRF-tier health:
// contained per-record panics, canary-rejected reloads, and query
// shard budget overruns feed its sliding failure window. While the
// breaker is closed the CRF tier serves as before (optionally
// short-circuiting high-confidence phrases to the rules tier behind
// Config.RulesRoute); when it trips, annotation endpoints degrade to
// the deterministic gazetteer tier — 200 with degraded:true and
// tier:"rules" instead of a 429 or 500 — and half-open probes restore
// the CRF tier automatically once decodes succeed again. Input-poison
// rejections (bad UTF-8, caps, empty-after-clean) are the input's
// fault, not the tier's: they answer 422 from either tier, never feed
// the breaker, and are byte-identical between tiers by construction
// (both run core.Sanitize under the same policy).
//
// Everything here is opt-in: with Config.Rules nil the breaker is nil
// (always admits, never trips), and with the breaker closed and
// routing off every annotation response is byte-identical to a serial
// CRF decode of the request — the differential contract
// TestTierDifferential pins against a serial test oracle.
package server

import (
	"errors"
	"net/http"

	"recipemodel/internal/breaker"
	"recipemodel/internal/core"
	"recipemodel/internal/quarantine"
)

// RulesAnnotator is the fallback-tier contract (satisfied by
// rules.Tagger): annotate one raw phrase without the CRF model,
// returning the record, a confidence in [0, 1], and the same typed
// quarantine rejections as the CRF path for poison input.
type RulesAnnotator interface {
	Annotate(phrase string) (core.IngredientRecord, float64, error)
}

// errCRFOpen marks a decode denied by the open breaker: the request
// (and any waiters coalesced behind it) must fall through to the
// rules tier.
var errCRFOpen = errors.New("crf tier circuit open")

// isCRFFailure classifies a decode error as a CRF-tier failure (a
// contained pipeline panic) as opposed to input poison. Only tier
// failures feed the breaker window.
func isCRFFailure(err error) bool {
	return errors.Is(err, quarantine.ErrTaggerPanic) || errors.Is(err, quarantine.ErrParserPanic)
}

// isPanicCode is isCRFFailure on the rejection-code form.
func isPanicCode(code quarantine.Code) bool {
	return code == quarantine.CodeTaggerPanic || code == quarantine.CodeParserPanic
}

// batchCRFSuccess folds a batch decode's rejections into one breaker
// outcome: the batch counts as a tier failure iff any record hit a
// contained pipeline panic.
func batchCRFSuccess(rejs []quarantine.Rejection) bool {
	for _, rej := range rejs {
		if isPanicCode(rej.Code) {
			return false
		}
	}
	return true
}

// tryRouteRules is the healthy-mode short circuit: with routing
// enabled and the breaker closed, a phrase the rules tier annotates
// at or above Config.RulesThreshold confidence is answered from the
// rules tier without touching the CRF pipeline (counted, plain
// envelope). Routing gives up byte-identity and saves no decode cost:
// the rules tier decodes at about half the compiled CRF's speed
// (DESIGN §15, §16), which is why it ships off by default. Reports
// whether the response was written.
func (s *Server) tryRouteRules(w http.ResponseWriter, phrase string) bool {
	if s.cfg.Rules == nil || !s.cfg.RulesRoute || s.brk.State() != breaker.StateClosed {
		return false
	}
	rec, conf, err := s.cfg.Rules.Annotate(phrase)
	if err != nil || conf < s.cfg.RulesThreshold {
		return false
	}
	rec.Phrase = phrase
	s.rulesRouted.Add(1)
	writeRecord(w, &rec, false)
	return true
}

// serveRulesDegraded answers one phrase from the rules tier with the
// degradation markers — the third ladder rung. Poison input still
// rejects 422 (identically to the CRF tier); with no rules tier
// configured the request sheds.
func (s *Server) serveRulesDegraded(w http.ResponseWriter, phrase string) {
	if s.cfg.Rules == nil {
		s.shed(w)
		return
	}
	rec, _, err := s.cfg.Rules.Annotate(phrase)
	if err != nil {
		s.rejectPhrase(w, phrase, err)
		return
	}
	rec.Phrase = phrase
	s.rulesDegraded.Add(1)
	writeRecord(w, &rec, true)
}

// finishBatchRules resolves every unfinished slot of a batch through
// the rules tier and writes the degraded envelope. Slots already
// served from the cache keep their records — "every annotate request
// answers 200 tier:rules or a cache hit" is exactly this function.
func (s *Server) finishBatchRules(w http.ResponseWriter, phrases []string, recs []core.IngredientRecord, done []bool, rejs []quarantine.Rejection) {
	if s.cfg.Rules == nil {
		s.shed(w)
		return
	}
	tiers := make([]string, len(phrases))
	for i, p := range phrases {
		if done[i] {
			continue
		}
		rec, _, err := s.cfg.Rules.Annotate(p)
		if err != nil {
			rejs = append(rejs, quarantine.Reject(i, p, err))
			continue
		}
		rec.Phrase = p
		recs[i] = rec
		tiers[i] = rulesTier
		s.rulesDegraded.Add(1)
	}
	s.writeBatchTier(w, recs, rejs, tiers)
}

// maybeAudit runs the sampled cross-tier agreement check: every
// Config.AgreementSample-th successful CRF decode is re-annotated by
// the rules tier and compared field for field (when the rules tier is
// confident enough to have an opinion). Disagreements are counted on
// /readyz and logged with the phrase truncated — a drifting
// disagreement rate flags either a degrading model or
// quarantine-suspect input reaching the decode path. The sample
// counter is deterministic (every Nth), not randomized, in keeping
// with the repo's no-wall-clock, no-global-rand serving discipline.
func (s *Server) maybeAudit(phrase string, rec core.IngredientRecord) {
	n := s.cfg.AgreementSample
	if n <= 0 || s.cfg.Rules == nil {
		return
	}
	if s.auditTick.Add(1)%uint64(n) != 0 {
		return
	}
	rrec, conf, err := s.cfg.Rules.Annotate(phrase)
	if err != nil || conf < s.cfg.RulesThreshold {
		return // the rules tier has no confident opinion; no signal
	}
	s.auditSampled.Add(1)
	rrec.Phrase = rec.Phrase
	if rrec != rec {
		s.auditDisagree.Add(1)
		s.logf("tier disagreement (quarantine-suspect input?) on %q: crf name=%q qty=%q unit=%q state=%q; rules name=%q qty=%q unit=%q state=%q",
			quarantine.Truncate(phrase),
			rec.Name, rec.Quantity, rec.Unit, rec.State,
			rrec.Name, rrec.Quantity, rrec.Unit, rrec.State)
	}
}

// tierStatus is the /readyz tiers block: where the ladder is standing
// and how much traffic each rung has carried.
type tierStatus struct {
	// Enabled is true when a rules tier is configured (and with it
	// the breaker).
	Enabled bool `json:"enabled"`
	// RouteEnabled mirrors Config.RulesRoute.
	RouteEnabled bool `json:"route_enabled"`
	// CRFServed counts requests answered with a fresh CRF decode.
	CRFServed int64 `json:"crf_served"`
	// RulesRouted counts healthy-mode short circuits to the rules
	// tier.
	RulesRouted int64 `json:"rules_routed"`
	// RulesDegradedServed counts phrases answered by the rules tier
	// because the CRF tier was open, saturated, or panicking.
	RulesDegradedServed int64 `json:"rules_degraded_served"`
	// AgreementSampled / Disagreements are the cross-tier audit
	// counters: sampled comparisons where the rules tier was
	// confident, and how many of those disagreed with the CRF record.
	AgreementSampled int64 `json:"agreement_sampled"`
	Disagreements    int64 `json:"disagreements"`
	// Breaker is the CRF-tier breaker snapshot.
	Breaker breaker.Stats `json:"breaker"`
}

// tierStatusNow assembles the /readyz tiers block.
func (s *Server) tierStatusNow() tierStatus {
	return tierStatus{
		Enabled:             s.cfg.Rules != nil,
		RouteEnabled:        s.cfg.RulesRoute,
		CRFServed:           s.crfServed.Load(),
		RulesRouted:         s.rulesRouted.Load(),
		RulesDegradedServed: s.rulesDegraded.Load(),
		AgreementSampled:    s.auditSampled.Load(),
		Disagreements:       s.auditDisagree.Load(),
		Breaker:             s.brk.Stats(),
	}
}
