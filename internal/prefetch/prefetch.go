// Package prefetch implements the hardware-prefetcher models: stream
// detectors that watch an access stream at page granularity and propose
// lines to fetch ahead. The core model instantiates one as the L1
// prefetcher (short distance, trained on demand loads) and one as the
// L2 streamer (long distance, trained on L2 traffic), and enforces the
// L2 engine's in-flight budget — the resource whose exhaustion under
// long CXL latencies costs coverage (paper §5.4, Figures 12 and 13).
package prefetch

import "github.com/moatlab/melody/internal/mem"

const pageBytes = 4096

// Config sizes one prefetch engine.
type Config struct {
	// Degree is how many lines are proposed per trigger.
	Degree int
	// Distance is how many lines ahead of the trigger the proposals
	// run. Larger distances tolerate more latency but need accuracy.
	Distance int
	// TableEntries is the number of concurrently tracked streams.
	TableEntries int
	// MinConfidence is how many consecutive same-stride accesses a
	// stream needs before proposals start.
	MinConfidence int
}

// L1Config returns the L1 stream prefetcher shape: aggressive trigger,
// short reach.
func L1Config() Config {
	return Config{Degree: 2, Distance: 4, TableEntries: 16, MinConfidence: 1}
}

// L2Config returns the L2 streamer shape: long reach, more streams.
func L2Config() Config {
	return Config{Degree: 4, Distance: 32, TableEntries: 64, MinConfidence: 1}
}

type entry struct {
	page         uint64 // page number + 1; 0 = empty
	lastLine     int32  // line index within page of last access
	stride       int32
	confidence   int32
	lastProposed int64 // absolute line number most recently proposed
}

// Streamer is one prefetch engine. Not safe for concurrent use.
type Streamer struct {
	cfg     Config
	entries []entry

	observed uint64
	trained  uint64
}

// New builds a Streamer.
func New(cfg Config) *Streamer {
	if cfg.TableEntries <= 0 || cfg.Degree <= 0 {
		panic("prefetch: invalid config")
	}
	return &Streamer{cfg: cfg, entries: make([]entry, cfg.TableEntries)}
}

// Reset clears all stream state.
func (s *Streamer) Reset() {
	clear(s.entries)
	s.observed, s.trained = 0, 0
}

// Observed and Trained expose statistics.
func (s *Streamer) Observed() uint64 { return s.observed }
func (s *Streamer) Trained() uint64  { return s.trained }

// Observe feeds one access into the detector and appends proposed
// prefetch addresses to buf, returning the extended slice. Proposals
// are line-aligned and may cross page boundaries (modern streamers
// re-train quickly across pages; crossing keeps streams hot).
func (s *Streamer) Observe(addr uint64, buf []uint64) []uint64 {
	s.observed++
	page := addr/pageBytes + 1
	lineInPage := int32((addr % pageBytes) / mem.LineSize)
	absLine := int64(addr / mem.LineSize)

	slot := &s.entries[(page-1)%uint64(len(s.entries))]
	if slot.page != page {
		// New stream (or conflict): start tracking, no proposals yet.
		*slot = entry{page: page, lastLine: lineInPage, stride: 0, confidence: 0}
		return buf
	}

	stride := lineInPage - slot.lastLine
	if stride == 0 {
		return buf // same line; ignore
	}
	if stride == slot.stride {
		slot.confidence++
	} else {
		slot.stride = stride
		slot.confidence = 0
	}
	slot.lastLine = lineInPage

	if slot.confidence < int32(s.cfg.MinConfidence) {
		return buf
	}
	s.trained++

	// Propose Degree lines, starting past whatever was already
	// proposed, capped at Distance ahead of the current access.
	st := int64(slot.stride)
	start := absLine + st
	if slot.lastProposed != 0 {
		next := slot.lastProposed + st
		// Only advance in the stream direction.
		if (st > 0 && next > start) || (st < 0 && next < start) {
			start = next
		}
	}
	limit := absLine + int64(s.cfg.Distance)*st
	for i := 0; i < s.cfg.Degree; i++ {
		line := start + int64(i)*st
		if st > 0 && line > limit {
			break
		}
		if st < 0 && line < limit {
			break
		}
		if line < 0 {
			break
		}
		buf = append(buf, uint64(line)*mem.LineSize)
		slot.lastProposed = line
	}
	return buf
}
