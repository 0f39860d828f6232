package server

import (
	"strings"
	"testing"
	"testing/quick"

	"recipemodel/internal/core"
)

// packRoundTrip reports whether rec survives packRecord and unpacks
// to its seven derived fields plus phrase, whatever Phrase it was
// packed with.
func packRoundTrip(rec core.IngredientRecord, phrase string) bool {
	want := rec
	want.Phrase = phrase
	return packRecord(&rec).record(phrase) == want
}

// TestCachedRecordRoundTrip: any record unpacks to exactly the fields
// it was packed from, with the given phrase in place of its own.
// testing/quick draws arbitrary Unicode strings, empty ones included;
// the fixed cases add all-empty and one-field records, non-ASCII text
// and fields longer than any 16-bit offset could address.
func TestCachedRecordRoundTrip(t *testing.T) {
	if err := quick.Check(packRoundTrip, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("ab", 40000) // 80,000 bytes
	for i, rec := range []core.IngredientRecord{
		{},
		{Phrase: "the filler's phrase", Size: "large"},
		{Name: "crème fraîche", Quantity: "½", Unit: "杯", DryFresh: "frais"},
		{Name: long, State: "chopped", Size: "small"},
		{Quantity: "2", Unit: long, DryFresh: "dried", Size: long},
		{Temp: "\x00 ", DryFresh: "\xff"},
	} {
		if !packRoundTrip(rec, "2 cups\u00a0onion") {
			t.Errorf("case %d did not round-trip", i)
		}
	}
}
