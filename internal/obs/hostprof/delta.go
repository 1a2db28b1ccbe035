package hostprof

// Heap-delta analysis: subtract one heap snapshot from a later one,
// per stack. A single heap profile says where memory *is*; the delta
// between two says where it is *going* — the view that turns "sustained
// heap growth" watchdog alerts into the allocation site responsible.

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/moatlab/melody/internal/obs/profile"
)

// Parse decodes a pprof profile, gzipped or not, with the profile
// codec's decoder.
func Parse(data []byte) (*profile.Parsed, error) { return profile.Parse(data) }

// DeltaRow is one stack's change between two heap snapshots. Stack is
// leaf-first (the allocation site leads). Delta holds one value per
// shared sample type, in the profile's type order.
type DeltaRow struct {
	Stack []string `json:"stack"`
	Delta []int64  `json:"delta"`
}

// HeapDelta is the comparison of two heap snapshots.
type HeapDelta struct {
	// SampleTypes names the value columns of every Delta row.
	SampleTypes []profile.ValueType `json:"sample_types"`
	// SortedBy is the sample type the rows are ranked on (inuse_space
	// when present).
	SortedBy string `json:"sorted_by"`
	// Totals is the whole-profile delta per sample type.
	Totals []int64 `json:"totals"`
	// Rows are per-stack deltas, largest absolute change first, zero
	// rows dropped. Growth is positive.
	Rows []DeltaRow `json:"rows"`
	// RowsTruncated counts non-zero rows dropped by the row cap, so a
	// capped response is visible as such.
	RowsTruncated int `json:"rows_truncated,omitempty"`
}

// DefaultDeltaRows bounds the rows a delta report carries: enough to
// see every plausible leak site, small enough to eyeball.
const DefaultDeltaRows = 50

// DiffHeap computes to − from, per stack. Both profiles must share
// sample types (two captures of the same runtime profile kind always
// do). maxRows bounds the report (0 = DefaultDeltaRows).
func DiffHeap(from, to *profile.Parsed, maxRows int) (*HeapDelta, error) {
	if maxRows <= 0 {
		maxRows = DefaultDeltaRows
	}
	if !slices.Equal(from.SampleTypes, to.SampleTypes) {
		return nil, fmt.Errorf("hostprof: sample types differ: %v vs %v", from.SampleTypes, to.SampleTypes)
	}
	nTypes := len(from.SampleTypes)

	// Rank on inuse_space when the profile has it (heap profiles do);
	// otherwise the last column (pprof convention: space after objects).
	sortIdx := to.TypeIndex("inuse_space")
	if sortIdx < 0 {
		sortIdx = nTypes - 1
	}

	acc := map[string]*DeltaRow{}
	fold := func(p *profile.Parsed, sign int64) {
		for _, s := range p.Samples {
			key := strings.Join(s.Stack, "\x00")
			row, ok := acc[key]
			if !ok {
				row = &DeltaRow{Stack: s.Stack, Delta: make([]int64, nTypes)}
				acc[key] = row
			}
			for i := 0; i < nTypes && i < len(s.Values); i++ {
				row.Delta[i] += sign * s.Values[i]
			}
		}
	}
	fold(from, -1)
	fold(to, +1)

	out := &HeapDelta{
		SampleTypes: to.SampleTypes,
		SortedBy:    to.SampleTypes[sortIdx].Type,
		Totals:      make([]int64, nTypes),
	}
	rows := make([]*DeltaRow, 0, len(acc))
	for _, row := range acc {
		zero := true
		for i, d := range row.Delta {
			out.Totals[i] += d
			if d != 0 {
				zero = false
			}
		}
		if !zero {
			rows = append(rows, row)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := abs64(rows[i].Delta[sortIdx]), abs64(rows[j].Delta[sortIdx])
		if a != b {
			return a > b
		}
		// Deterministic order among ties.
		return strings.Join(rows[i].Stack, "\x00") < strings.Join(rows[j].Stack, "\x00")
	})
	if len(rows) > maxRows {
		out.RowsTruncated = len(rows) - maxRows
		rows = rows[:maxRows]
	}
	for _, row := range rows {
		out.Rows = append(out.Rows, *row)
	}
	return out, nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
