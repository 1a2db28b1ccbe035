// Package profile renders simulated-time measurements as pprof
// profiles — the profile.proto wire format consumed by `go tool
// pprof`, speedscope, and every flamegraph viewer built on it.
//
// Real profilers sample a program counter; here the "program" is the
// simulated machine and the stacks are synthetic: each frame names a
// level of the model's stall attribution (workload → platform → stall
// source → memory level → device component), and each sample's values
// are the simulated cycles and nanoseconds that level absorbed. The
// paper's whole method is explaining slowdowns by where stalled cycles
// go (Table 2); exporting that attribution as a standard profile makes
// the model's time budget explorable with off-the-shelf tooling.
//
// The encoder is hand-rolled: profile.proto needs only varint and
// length-delimited protobuf wire types, so a dependency-free writer is
// ~150 lines. Output is deterministic — same Profile, same bytes —
// because the string/function tables intern in sample order and the
// gzip header carries no timestamp; byte-identical profiles across
// worker counts are part of the package contract.
package profile

import (
	"compress/gzip"
	"io"
)

// ValueType names one sample dimension (e.g. {"sim_cycles",
// "cycles"}); the strings land in the profile's string table.
type ValueType struct {
	Type string `json:"type"`
	Unit string `json:"unit"`
}

// Label is one string label attached to a sample (pprof tag), e.g.
// {"config", "CXL-A"}. Tags survive aggregation, so a merged profile
// can still be filtered per memory config with pprof's -tagfocus.
type Label struct {
	Key string
	Str string
}

// Sample is one synthetic stack with its measured values. Stack is
// root-first (workload outermost); the encoder reverses it into
// pprof's leaf-first location order. len(Values) must equal the
// profile's sample-type count.
type Sample struct {
	Stack  []string
	Values []int64
	Labels []Label
}

// Profile is a complete pprof profile ready to encode. Build one with
// a Builder (which aggregates and orders samples deterministically) or
// assemble it directly in tests.
type Profile struct {
	SampleTypes []ValueType
	// DefaultSampleType selects which value column pprof shows by
	// default; must match a SampleTypes entry's Type when set.
	DefaultSampleType string
	// DurationNanos is the profiled span — simulated nanoseconds, per
	// this package's charter. TimeNanos is deliberately absent: wall
	// clocks would break byte-determinism.
	DurationNanos int64
	Comments      []string
	Samples       []Sample
}

// Protobuf field numbers of profile.proto (the pprof wire format),
// shared by the encoder and Parse.
const (
	profSampleType    = 1
	profSample        = 2
	profLocation      = 4
	profFunction      = 5
	profStringTable   = 6
	profDurationNanos = 10
	profComment       = 13
	profDefaultType   = 14

	sampleLocationID = 1
	sampleValue      = 2
	sampleLabel      = 3

	locID      = 1
	locAddress = 3
	locLine    = 4

	// ValueType, Label, Line and Function are all two-varint
	// submessages, encoded and decoded as a pair.
	vtType, vtUnit     = pairFirst, pairSecond
	labelKey, labelStr = pairFirst, pairSecond
	lineFunctionID     = pairFirst
	funcID, funcName   = pairFirst, pairSecond
	pairFirst          = 1
	pairSecond         = 2
)

// buffer is a minimal protobuf writer: varints, tagged scalar fields,
// and length-delimited submessages.
type buffer struct{ b []byte }

func (e *buffer) varint(v uint64) {
	for v >= 0x80 {
		e.b = append(e.b, byte(v)|0x80)
		v >>= 7
	}
	e.b = append(e.b, byte(v))
}

// tag emits a field key: (field number << 3) | wire type.
func (e *buffer) tag(field, wire int) { e.varint(uint64(field)<<3 | uint64(wire)) }

// uint64Field emits a varint-typed field, skipping the zero default.
func (e *buffer) uint64Field(field int, v uint64) {
	if v == 0 {
		return
	}
	e.tag(field, 0)
	e.varint(v)
}

// int64Field emits a non-negative int64 varint field. Profile values
// here are cycle and nanosecond totals, never negative.
func (e *buffer) int64Field(field int, v int64) { e.uint64Field(field, uint64(v)) }

// bytesField emits a length-delimited field (submessage or string).
func (e *buffer) bytesField(field int, data []byte) {
	e.tag(field, 2)
	e.varint(uint64(len(data)))
	e.b = append(e.b, data...)
}

func (e *buffer) stringField(field int, s string) { e.bytesField(field, []byte(s)) }

// packedField emits a repeated varint field in packed encoding.
func (e *buffer) packedField(field int, vals []uint64) {
	if len(vals) == 0 {
		return
	}
	var p buffer
	for _, v := range vals {
		p.varint(v)
	}
	e.bytesField(field, p.b)
}

// stringTable interns strings; index 0 is always "" as profile.proto
// requires.
type stringTable struct {
	idx map[string]int64
	tab []string
}

func newStringTable() *stringTable {
	return &stringTable{idx: map[string]int64{"": 0}, tab: []string{""}}
}

func (st *stringTable) index(s string) int64 {
	if i, ok := st.idx[s]; ok {
		return i
	}
	i := int64(len(st.tab))
	st.idx[s] = i
	st.tab = append(st.tab, s)
	return i
}

// pair is one two-varint submessage: a ValueType {type, unit}, a
// Label {key, str}, a Line {function_id, line} or a Function {id,
// name}.
type pair [2]uint64

func (p pair) encode() []byte {
	var e buffer
	e.uint64Field(pairFirst, p[0])
	e.uint64Field(pairSecond, p[1])
	return e.b
}

func parsePair(data []byte) (pair, error) {
	var p pair
	r := &reader{b: data}
	for !r.done() {
		num, _, v, _, err := r.field()
		if err != nil {
			return p, err
		}
		if num == pairFirst || num == pairSecond {
			p[num-pairFirst] = v
		}
	}
	return p, nil
}

// Encode renders the profile as uncompressed profile.proto bytes.
// Frames are interned one function + one location per unique name, in
// first-use order over Samples — deterministic for a fixed sample
// order (the Builder's contract).
func (p *Profile) Encode() []byte {
	st := newStringTable()
	var e buffer

	for _, vt := range p.SampleTypes {
		e.bytesField(profSampleType, pair{uint64(st.index(vt.Type)), uint64(st.index(vt.Unit))}.encode())
	}

	// One function and one co-numbered location per unique frame name.
	frameID := map[string]uint64{}
	var funcOrder []string
	intern := func(frame string) uint64 {
		if id, ok := frameID[frame]; ok {
			return id
		}
		id := uint64(len(funcOrder) + 1)
		frameID[frame] = id
		funcOrder = append(funcOrder, frame)
		return id
	}

	for _, s := range p.Samples {
		var se buffer
		// pprof wants leaf-first location ids; Stack is root-first.
		locs := make([]uint64, len(s.Stack))
		for i, frame := range s.Stack {
			locs[len(s.Stack)-1-i] = intern(frame)
		}
		se.packedField(sampleLocationID, locs)
		vals := make([]uint64, len(s.Values))
		for i, v := range s.Values {
			vals[i] = uint64(v)
		}
		se.packedField(sampleValue, vals)
		for _, l := range s.Labels {
			se.bytesField(sampleLabel, pair{uint64(st.index(l.Key)), uint64(st.index(l.Str))}.encode())
		}
		e.bytesField(profSample, se.b)
	}

	for i, frame := range funcOrder {
		id := uint64(i + 1)
		var loc buffer
		loc.uint64Field(locID, id)
		loc.bytesField(locLine, pair{id, 0}.encode())
		e.bytesField(profLocation, loc.b)

		e.bytesField(profFunction, pair{id, uint64(st.index(frame))}.encode())
	}

	e.int64Field(profDurationNanos, p.DurationNanos)
	for _, c := range p.Comments {
		e.int64Field(profComment, st.index(c))
	}
	if p.DefaultSampleType != "" {
		e.int64Field(profDefaultType, st.index(p.DefaultSampleType))
	}

	// The string table indexes above were assigned during encoding, so
	// it is emitted last; field order within a protobuf message is
	// free, and pprof's parser accepts any.
	for _, s := range st.tab {
		e.stringField(profStringTable, s)
	}
	return e.b
}

// Write encodes the profile gzipped — the on-disk format every pprof
// consumer expects. The gzip header carries no mod time, keeping the
// output byte-deterministic.
func (p *Profile) Write(w io.Writer) error {
	zw := gzip.NewWriter(w)
	if _, err := zw.Write(p.Encode()); err != nil {
		zw.Close()
		return err
	}
	return zw.Close()
}
