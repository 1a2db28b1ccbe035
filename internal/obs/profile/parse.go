package profile

// The decoding half of the codec. Parse reads what Encode writes and
// what runtime/pprof writes, so the host profiler can look inside its
// captures (sample types, stacks, label sets) without shelling out to
// `go tool pprof`.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
)

// ParsedSample is one decoded sample: its stack leaf-first (pprof's
// native order, the reverse of Sample.Stack), one value per sample
// type, and its string labels (pprof tags — job_id, spec_hash,
// experiment land here).
type ParsedSample struct {
	Stack  []string
	Values []int64
	Labels map[string][]string
}

// Parsed is a decoded profile.
type Parsed struct {
	SampleTypes       []ValueType
	DefaultSampleType string
	DurationNanos     int64
	Samples           []ParsedSample
}

// LabelValues returns the distinct values of one label key across all
// samples, in first-seen order.
func (p *Parsed) LabelValues(key string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range p.Samples {
		for _, v := range s.Labels[key] {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// Total sums one sample-type column (by index) across all samples.
func (p *Parsed) Total(valueIndex int) int64 {
	var t int64
	for _, s := range p.Samples {
		if valueIndex < len(s.Values) {
			t += s.Values[valueIndex]
		}
	}
	return t
}

// TypeIndex returns the index of the named sample type (-1 if absent).
func (p *Parsed) TypeIndex(name string) int {
	for i, vt := range p.SampleTypes {
		if vt.Type == name {
			return i
		}
	}
	return -1
}

// Parse decodes a pprof profile from data, gunzipping it first when it
// carries the gzip magic (runtime/pprof and Write both gzip).
func Parse(data []byte) (*Parsed, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		data = raw
	}
	return parseProto(data)
}

// reader is the protobuf counterpart of buffer.
type reader struct {
	b   []byte
	pos int
}

func (r *reader) done() bool { return r.pos >= len(r.b) }

func (r *reader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if r.pos >= len(r.b) {
			return 0, io.ErrUnexpectedEOF
		}
		c := r.b[r.pos]
		r.pos++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("profile: varint overflow")
}

// field reads one field key and returns its number, wire type, and —
// for the two wire types profile.proto uses — its payload: a varint
// value (wire 0) or delimited bytes (wire 2). Fixed-width fields are
// skipped so future profile.proto additions cannot break the reader.
func (r *reader) field() (num, wire int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	skip := 0
	switch wire {
	case 0:
		v, err = r.varint()
		return num, wire, v, nil, err
	case 2:
		n, err := r.varint()
		if err != nil {
			return 0, 0, 0, nil, err
		}
		if n > uint64(len(r.b)-r.pos) {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		data = r.b[r.pos : r.pos+int(n)]
		r.pos += int(n)
		return num, wire, 0, data, nil
	case 5: // fixed32
		skip = 4
	case 1: // fixed64
		skip = 8
	default:
		return 0, 0, 0, nil, fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	if r.pos+skip > len(r.b) {
		return 0, 0, 0, nil, io.ErrUnexpectedEOF
	}
	r.pos += skip
	return num, wire, 0, nil, nil
}

// uints decodes a repeated varint field that may arrive packed (one
// length-delimited payload) or unpacked (one varint per occurrence).
func uints(wire int, v uint64, data []byte, into []uint64) ([]uint64, error) {
	if wire == 0 {
		return append(into, v), nil
	}
	r := &reader{b: data}
	for !r.done() {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		into = append(into, x)
	}
	return into, nil
}

type rawSample struct {
	locs, vals []uint64
	labels     []pair // {key, str}
}

func parseProto(data []byte) (*Parsed, error) {
	var (
		strTab      []string
		sampleTypes []pair // {type, unit}
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id → function ids, leaf-first
		locAddr     = map[uint64]uint64{}
		funcName    = map[uint64]uint64{}
		defaultType uint64
		durationNs  int64
	)
	r := &reader{b: data}
	for !r.done() {
		num, _, v, payload, err := r.field()
		if err != nil {
			return nil, err
		}
		var p pair
		switch num {
		case profSampleType:
			p, err = parsePair(payload)
			sampleTypes = append(sampleTypes, p)
		case profSample:
			var s rawSample
			s, err = parseSample(payload)
			samples = append(samples, s)
		case profLocation:
			var id, addr uint64
			var fns []uint64
			id, addr, fns, err = parseLocation(payload)
			locFuncs[id], locAddr[id] = fns, addr
		case profFunction:
			p, err = parsePair(payload)
			funcName[p[0]] = p[1]
		case profStringTable:
			strTab = append(strTab, string(payload))
		case profDurationNanos:
			durationNs = int64(v)
		case profDefaultType:
			defaultType = v
		}
		if err != nil {
			return nil, err
		}
	}
	if len(sampleTypes) == 0 {
		return nil, fmt.Errorf("profile: no sample types")
	}
	str := func(i uint64) string {
		if i >= uint64(len(strTab)) {
			return ""
		}
		return strTab[i]
	}

	out := &Parsed{DefaultSampleType: str(defaultType), DurationNanos: durationNs}
	for _, vt := range sampleTypes {
		out.SampleTypes = append(out.SampleTypes, ValueType{Type: str(vt[0]), Unit: str(vt[1])})
	}
	for _, s := range samples {
		ps := ParsedSample{Values: make([]int64, len(s.vals))}
		for i, v := range s.vals {
			ps.Values[i] = int64(v)
		}
		for _, loc := range s.locs {
			if fns := locFuncs[loc]; len(fns) > 0 {
				for _, fn := range fns {
					ps.Stack = append(ps.Stack, str(funcName[fn]))
				}
			} else {
				ps.Stack = append(ps.Stack, fmt.Sprintf("0x%x", locAddr[loc]))
			}
		}
		if len(s.labels) > 0 {
			ps.Labels = map[string][]string{}
			for _, l := range s.labels {
				// Numeric labels (str == 0) are not needed here; string
				// labels are the correlation tags.
				if l[1] != 0 {
					k := str(l[0])
					ps.Labels[k] = append(ps.Labels[k], str(l[1]))
				}
			}
		}
		out.Samples = append(out.Samples, ps)
	}
	return out, nil
}

func parseSample(data []byte) (rawSample, error) {
	var s rawSample
	r := &reader{b: data}
	for !r.done() {
		num, wire, v, payload, err := r.field()
		if err != nil {
			return s, err
		}
		switch num {
		case sampleLocationID:
			s.locs, err = uints(wire, v, payload, s.locs)
		case sampleValue:
			s.vals, err = uints(wire, v, payload, s.vals)
		case sampleLabel:
			var l pair
			l, err = parsePair(payload)
			s.labels = append(s.labels, l)
		}
		if err != nil {
			return s, err
		}
	}
	return s, nil
}

func parseLocation(data []byte) (id, addr uint64, fns []uint64, err error) {
	r := &reader{b: data}
	for !r.done() {
		num, _, v, payload, err := r.field()
		if err != nil {
			return 0, 0, nil, err
		}
		switch num {
		case locID:
			id = v
		case locAddress:
			addr = v
		case locLine: // lines are leaf-first
			ln, err := parsePair(payload)
			if err != nil {
				return 0, 0, nil, err
			}
			if ln[0] != 0 {
				fns = append(fns, ln[0])
			}
		}
	}
	return id, addr, fns, nil
}
