package server

import (
	"strings"

	"recipemodel/internal/core"
)

// cachedRecord is the annotation cache's value: a core.IngredientRecord
// without its Phrase, whose seven derived fields (Name, State, Quantity,
// Unit, Temp, DryFresh, Size) sit back to back in fields, field i
// ending at ends[i] and Size running to the end. Phrase is not kept
// because every response echoes the raw phrase of its own request,
// never the one that filled the entry (DESIGN §13). The value is 40
// bytes where the record is 128, so an LRU entry (key, value,
// generation, list links) takes 80 bytes instead of 168. uint32
// offsets cover any record a phrase under the sanitizer's 64 KiB cap
// can produce, and only keyable phrases are cached.
type cachedRecord struct {
	fields string
	ends   [6]uint32
}

// packRecord packs rec's derived fields with one allocation (none when
// every field is empty).
func packRecord(rec *core.IngredientRecord) cachedRecord {
	vals := [...]string{rec.Name, rec.State, rec.Quantity, rec.Unit, rec.Temp, rec.DryFresh, rec.Size}
	n := 0
	for _, v := range vals {
		n += len(v)
	}
	var sb strings.Builder
	sb.Grow(n)
	var c cachedRecord
	for i, v := range vals {
		sb.WriteString(v)
		if i < len(c.ends) {
			c.ends[i] = uint32(sb.Len())
		}
	}
	c.fields = sb.String()
	return c
}

// record unpacks c into the record served for phrase. The fields are
// slices of the packed string, so unpacking allocates nothing.
func (c cachedRecord) record(phrase string) core.IngredientRecord {
	f, e := c.fields, c.ends
	return core.IngredientRecord{
		Phrase:   phrase,
		Name:     f[:e[0]],
		State:    f[e[0]:e[1]],
		Quantity: f[e[1]:e[2]],
		Unit:     f[e[2]:e[3]],
		Temp:     f[e[3]:e[4]],
		DryFresh: f[e[4]:e[5]],
		Size:     f[e[5]:],
	}
}
