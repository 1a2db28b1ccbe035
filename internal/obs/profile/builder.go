package profile

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Builder accumulates weighted stacks into a Profile. Values are
// float64 while accumulating (the core model accounts fractional
// cycles) and round to int64 only at Profile time, so per-interval
// fractions add up before quantization. Builders aggregate: Add with
// an already-seen (stack, labels) identity folds into one sample, and
// Merge folds a whole builder in — the per-cell → per-experiment
// merge path. Not safe for concurrent use; profile generation is a
// strictly post-completion step.
type Builder struct {
	types   []ValueType
	byKey   map[string]*accum
	samples int64 // Add calls, for the sample-count comment
}

// accum is one aggregated stack's running totals.
type accum struct {
	stack  []string
	labels []Label
	vals   []float64
}

// NewBuilder returns a Builder producing profiles with the given
// sample types (at least one).
func NewBuilder(types ...ValueType) *Builder {
	return &Builder{types: types, byKey: map[string]*accum{}}
}

// SampleTypes returns the builder's sample-type schema.
func (b *Builder) SampleTypes() []ValueType { return b.types }

// key builds the aggregation identity of a (stack, labels) pair.
// Frame names never contain the separator bytes (they are printable
// attribution labels), so the join is injective in practice.
func key(stack []string, labels []Label) string {
	var sb strings.Builder
	for _, f := range stack {
		sb.WriteString(f)
		sb.WriteByte(0)
	}
	sb.WriteByte(1)
	for _, l := range labels {
		sb.WriteString(l.Key)
		sb.WriteByte(0)
		sb.WriteString(l.Str)
		sb.WriteByte(0)
	}
	return sb.String()
}

// Add accumulates one weighted stack (root-first). vals must have one
// entry per sample type; non-positive-weight stacks (all vals <= 0)
// still aggregate but are dropped at Profile time if they round to
// all-zero.
func (b *Builder) Add(stack []string, labels []Label, vals ...float64) {
	if len(vals) != len(b.types) {
		panic(fmt.Sprintf("profile: Add got %d values for %d sample types", len(vals), len(b.types)))
	}
	b.fold(key(stack, labels), stack, labels, vals)
	b.samples++
}

// fold adds vals into the stack aggregated under k, creating it with
// copies of stack and labels on first sight.
func (b *Builder) fold(k string, stack []string, labels []Label, vals []float64) {
	a, ok := b.byKey[k]
	if !ok {
		a = &accum{
			stack:  append([]string(nil), stack...),
			labels: append([]Label(nil), labels...),
			vals:   make([]float64, len(vals)),
		}
		b.byKey[k] = a
	}
	for i, v := range vals {
		a.vals[i] += v
	}
}

// Merge folds o's accumulated stacks into b. The two builders must
// share the same sample-type schema.
func (b *Builder) Merge(o *Builder) error {
	if o == nil || o == b {
		return nil
	}
	if !slices.Equal(o.types, b.types) {
		return fmt.Errorf("profile: merging sample types %v into %v", o.types, b.types)
	}
	for k, a := range o.byKey {
		b.fold(k, a.stack, a.labels, a.vals)
	}
	b.samples += o.samples
	return nil
}

// Total returns the accumulated total of sample-type index i across
// all stacks — what reconciliation checks compare against counter
// totals.
func (b *Builder) Total(i int) float64 {
	var t float64
	for _, a := range b.byKey {
		t += a.vals[i]
	}
	return t
}

// Profile assembles the deterministic Profile: stacks sorted by their
// aggregation key (stable under any Add/Merge order), values rounded
// to the nearest integer, all-zero samples dropped.
func (b *Builder) Profile() *Profile {
	keys := make([]string, 0, len(b.byKey))
	for k := range b.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	p := &Profile{SampleTypes: append([]ValueType(nil), b.types...)}
	if len(b.types) > 0 {
		p.DefaultSampleType = b.types[0].Type
	}
	for _, k := range keys {
		a := b.byKey[k]
		vals := make([]int64, len(a.vals))
		zero := true
		for i, v := range a.vals {
			vals[i] = int64(math.Round(v))
			if vals[i] != 0 {
				zero = false
			}
		}
		if zero {
			continue
		}
		p.Samples = append(p.Samples, Sample{Stack: a.stack, Values: vals, Labels: a.labels})
	}
	return p
}
