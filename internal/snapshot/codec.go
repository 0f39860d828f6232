package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"

	"recipemodel/internal/core"
	"recipemodel/internal/relations"
)

// segmentFormat names the segment codec below in every MANIFEST.json
// that Build writes. It is the only format LoadVersion reads.
const segmentFormat = "binary-v1"

// A segment is its string table followed by its records:
//
//	segment    = uvarint(n) uvarint(len(s))×n bytes(s)×n records
//	records    = uvarint(count) record×count
//	record     = str(Title) str(Cuisine) list(ingredient) list(str) list(event)
//	ingredient = str(Phrase) str(Name) str(State) str(Quantity)
//	             str(Unit) str(Temp) str(DryFresh) str(Size)
//	event      = int(Step) str(Process) int(ProcessIndex)
//	             list(argument) list(argument)
//	argument   = str(Text) int(Index)
//	str        = uvarint(index into the string table)
//	int        = varint (zig-zag)
//	list(x)    = uvarint(0) for a nil slice, else uvarint(len+1) x×len
//
// The table holds every distinct string of the segment once, in the
// order the walk above first meets it, so the same models always
// encode to the same bytes. Nil and empty slices stay distinct, and
// strings are copied byte for byte, invalid UTF-8 included.
//
// The smallest encoding of each element, in bytes. The decoder checks
// every count against the bytes left before it allocates, so no input
// makes it allocate more than a constant multiple of the segment size.
const (
	minRecordBytes     = 5
	minIngredientBytes = 8
	minStringBytes     = 1
	minEventBytes      = 5
	minArgumentBytes   = 2
)

// segmentEncoder builds one segment: the string table in first-seen
// order and the record bytes that index it.
type segmentEncoder struct {
	ids     map[string]uint64
	strs    []string
	records []byte
}

// encodeSegment encodes models as one segment.
func encodeSegment(models []*core.RecipeModel) []byte {
	e := segmentEncoder{ids: make(map[string]uint64)}
	e.uvarint(uint64(len(models)))
	for _, m := range models {
		e.model(m)
	}
	out := binary.AppendUvarint(nil, uint64(len(e.strs)))
	for _, s := range e.strs {
		out = binary.AppendUvarint(out, uint64(len(s)))
	}
	for _, s := range e.strs {
		out = append(out, s...)
	}
	return append(out, e.records...)
}

func (e *segmentEncoder) uvarint(v uint64) { e.records = binary.AppendUvarint(e.records, v) }

func (e *segmentEncoder) int(v int) { e.records = binary.AppendVarint(e.records, int64(v)) }

func (e *segmentEncoder) str(s string) {
	id, ok := e.ids[s]
	if !ok {
		id = uint64(len(e.strs))
		e.ids[s] = id
		e.strs = append(e.strs, s)
	}
	e.uvarint(id)
}

// listPrefix writes a slice's length prefix: 0 for nil, len+1 otherwise.
func listPrefix[T any](e *segmentEncoder, s []T) {
	if s == nil {
		e.uvarint(0)
		return
	}
	e.uvarint(uint64(len(s)) + 1)
}

func (e *segmentEncoder) model(m *core.RecipeModel) {
	e.str(m.Title)
	e.str(m.Cuisine)
	listPrefix(e, m.Ingredients)
	for _, r := range m.Ingredients {
		e.str(r.Phrase)
		e.str(r.Name)
		e.str(r.State)
		e.str(r.Quantity)
		e.str(r.Unit)
		e.str(r.Temp)
		e.str(r.DryFresh)
		e.str(r.Size)
	}
	listPrefix(e, m.Instructions)
	for _, s := range m.Instructions {
		e.str(s)
	}
	listPrefix(e, m.Events)
	for _, ev := range m.Events {
		e.int(ev.Step)
		e.str(ev.Process)
		e.int(ev.ProcessIndex)
		e.arguments(ev.Ingredients)
		e.arguments(ev.Utensils)
	}
}

func (e *segmentEncoder) arguments(args []relations.Argument) {
	listPrefix(e, args)
	for _, a := range args {
		e.str(a.Text)
		e.int(a.Index)
	}
}

// segmentDecoder reads one segment. Its first error sticks: every read
// after it returns a zero value, and the caller checks for an error
// once per record.
type segmentDecoder struct {
	buf  []byte   // bytes not yet read
	strs []string // the string table, substrings of one string
	err  error
}

// decodeSegment decodes one segment that its manifest says holds
// records models. The models share one backing array, and their
// strings share one string holding the whole table.
func decodeSegment(data []byte, records int) ([]*core.RecipeModel, error) {
	d := segmentDecoder{buf: data}
	if d.table(); d.err != nil {
		return nil, fmt.Errorf("string table: %w", d.err)
	}
	n := d.uvarint()
	if d.err != nil {
		return nil, fmt.Errorf("record count: %w", d.err)
	}
	if n != uint64(records) {
		return nil, fmt.Errorf("holds %d records, manifest expects %d", n, records)
	}
	if n > uint64(len(d.buf)/minRecordBytes) {
		return nil, fmt.Errorf("%d records cannot fit in the %d bytes left", n, len(d.buf))
	}
	models := make([]core.RecipeModel, n)
	out := make([]*core.RecipeModel, n)
	for i := range models {
		if d.model(&models[i]); d.err != nil {
			return nil, fmt.Errorf("record %d: %w", i, d.err)
		}
		out[i] = &models[i]
	}
	if len(d.buf) > 0 {
		return nil, fmt.Errorf("%d trailing bytes after the last of %d records", len(d.buf), n)
	}
	return out, nil
}

func (d *segmentDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = varintError(n)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// varintError explains a failed varint read by its width n (<= 0).
func varintError(n int) error {
	if n == 0 {
		return errors.New("truncated varint")
	}
	return errors.New("varint overflows 64 bits")
}

func (d *segmentDecoder) int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.err = varintError(n)
		return 0
	}
	if int64(int(v)) != v {
		d.err = fmt.Errorf("int %d out of range", v)
		return 0
	}
	d.buf = d.buf[n:]
	return int(v)
}

func (d *segmentDecoder) str() string {
	i := d.uvarint()
	if d.err != nil {
		return ""
	}
	if i >= uint64(len(d.strs)) {
		d.err = fmt.Errorf("string index %d outside the %d-string table", i, len(d.strs))
		return ""
	}
	return d.strs[i]
}

// count checks a claimed count of elements, each at least minBytes
// long, against the bytes left.
func (d *segmentDecoder) count(n uint64, minBytes int, what string) int {
	if d.err == nil && n > uint64(len(d.buf)/minBytes) {
		d.err = fmt.Errorf("%d %s cannot fit in the %d bytes left", n, what, len(d.buf))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// list reads a slice's length prefix: ok is false for a nil slice
// (or after an error), and n is checked against the bytes left.
func (d *segmentDecoder) list(minBytes int, what string) (n int, ok bool) {
	v := d.uvarint()
	if d.err != nil || v == 0 {
		return 0, false
	}
	n = d.count(v-1, minBytes, what)
	return n, d.err == nil
}

// table reads the string table and turns its bytes into one string
// that every table entry is a substring of.
func (d *segmentDecoder) table() {
	n := d.count(d.uvarint(), minStringBytes, "strings")
	lens := d.buf
	var total uint64
	for i := 0; i < n && d.err == nil; i++ {
		l := d.uvarint()
		if d.err == nil && (l > uint64(len(d.buf)) || total+l > uint64(len(d.buf))) {
			d.err = fmt.Errorf("string %d (%d bytes) overruns the segment", i, l)
		}
		total += l
	}
	if d.err != nil {
		return
	}
	all := string(d.buf[:total])
	d.buf = d.buf[total:]
	d.strs = make([]string, n)
	var off uint64
	for i := range d.strs {
		l, w := binary.Uvarint(lens)
		lens = lens[w:]
		d.strs[i] = all[off : off+l]
		off += l
	}
}

func (d *segmentDecoder) model(m *core.RecipeModel) {
	m.Title = d.str()
	m.Cuisine = d.str()
	if n, ok := d.list(minIngredientBytes, "ingredients"); ok {
		m.Ingredients = make([]core.IngredientRecord, n)
		for i := range m.Ingredients {
			r := &m.Ingredients[i]
			r.Phrase = d.str()
			r.Name = d.str()
			r.State = d.str()
			r.Quantity = d.str()
			r.Unit = d.str()
			r.Temp = d.str()
			r.DryFresh = d.str()
			r.Size = d.str()
		}
	}
	if n, ok := d.list(minStringBytes, "instructions"); ok {
		m.Instructions = make([]string, n)
		for i := range m.Instructions {
			m.Instructions[i] = d.str()
		}
	}
	if n, ok := d.list(minEventBytes, "events"); ok {
		m.Events = make([]core.Event, n)
		for i := range m.Events {
			ev := &m.Events[i]
			ev.Step = d.int()
			ev.Process = d.str()
			ev.ProcessIndex = d.int()
			ev.Ingredients = d.arguments()
			ev.Utensils = d.arguments()
		}
	}
}

func (d *segmentDecoder) arguments() []relations.Argument {
	n, ok := d.list(minArgumentBytes, "arguments")
	if !ok {
		return nil
	}
	args := make([]relations.Argument, n)
	for i := range args {
		args[i].Text = d.str()
		args[i].Index = d.int()
	}
	return args
}
