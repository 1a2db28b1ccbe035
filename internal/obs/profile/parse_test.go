package profile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"testing"
)

// FuzzRoundTrip feeds Parse arbitrary bytes, which must give a profile
// or an error, never a panic. The same input then builds a profile —
// the strings name a sample type, a frame and a label, the bytes read
// as little-endian int64 pairs give each sample's values — that must
// come back from Parse(Encode(p)) with its sample types, default type,
// duration, stacks, values and labels intact.
func FuzzRoundTrip(f *testing.F) {
	seed := &Profile{
		SampleTypes:       []ValueType{{Type: "inuse_objects", Unit: "count"}, {Type: "inuse_space", Unit: "bytes"}},
		DefaultSampleType: "inuse_space",
		DurationNanos:     5e9,
		Samples: []Sample{
			{Stack: []string{"main", "alloc"}, Values: []int64{3, 4096},
				Labels: []Label{{Key: "job_id", Str: "run-000042"}}},
			{Stack: []string{"main", "serve", "handler"}, Values: []int64{1, 512}},
		},
	}
	var gz bytes.Buffer
	if err := seed.Write(&gz); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Encode(), "inuse_space", "bytes", "run-000042", int64(5e9))
	f.Add(gz.Bytes(), "", "", "", int64(0))
	f.Add([]byte{}, "samples", "count", "x", int64(-1))
	f.Fuzz(func(t *testing.T, data []byte, typ, unit, label string, duration int64) {
		Parse(data)

		p := &Profile{
			SampleTypes:       []ValueType{{Type: typ, Unit: unit}, {Type: "b", Unit: "bytes"}},
			DefaultSampleType: typ,
			DurationNanos:     duration,
		}
		for i, b := 0, data; len(b) >= 16; i, b = i+1, b[16:] {
			p.Samples = append(p.Samples, Sample{
				Stack:  []string{"main", typ, fmt.Sprint("f", i)},
				Values: []int64{int64(binary.LittleEndian.Uint64(b)), int64(binary.LittleEndian.Uint64(b[8:]))},
				Labels: []Label{{Key: unit, Str: label}, {Key: "i", Str: fmt.Sprint(i)}},
			})
		}
		got, err := Parse(p.Encode())
		if err != nil {
			t.Fatalf("Parse(Encode()): %v", err)
		}
		if !slices.Equal(got.SampleTypes, p.SampleTypes) || got.DefaultSampleType != p.DefaultSampleType ||
			got.DurationNanos != p.DurationNanos {
			t.Fatalf("header = %v %q %d, want %v %q %d", got.SampleTypes, got.DefaultSampleType,
				got.DurationNanos, p.SampleTypes, p.DefaultSampleType, p.DurationNanos)
		}
		if len(got.Samples) != len(p.Samples) {
			t.Fatalf("round trip kept %d of %d samples", len(got.Samples), len(p.Samples))
		}
		for i, s := range got.Samples {
			want := p.Samples[i]
			stack := slices.Clone(want.Stack)
			slices.Reverse(stack) // Parse gives pprof's leaf-first order
			labels := map[string][]string{}
			for _, l := range want.Labels {
				// An empty label value is the string table's index 0,
				// which profile.proto reads as a numeric label.
				if l.Str != "" {
					labels[l.Key] = append(labels[l.Key], l.Str)
				}
			}
			if !slices.Equal(s.Stack, stack) || !slices.Equal(s.Values, want.Values) ||
				!maps.EqualFunc(s.Labels, labels, slices.Equal[[]string]) {
				t.Fatalf("sample %d = %+v, want stack %q values %v labels %v", i, s, stack, want.Values, labels)
			}
		}
	})
}
