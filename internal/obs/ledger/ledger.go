// Package ledger is the durable, crash-safe, content-addressed run
// ledger: the on-disk memory behind the job service's in-memory run
// store. Every completed manifest lands here twice-addressed — by the
// spec hash that produced it (the cache key for resubmission) and by
// its manifest content address (the identity melodydiff and the
// /compare surface align on) — and survives process restarts, so
// `/runs` history, cache-hit resubmission and baseline regression
// tracking all outlive the process that computed them.
//
// On-disk layout under one data directory:
//
//	journal.jsonl            append-only index: one JSON record per
//	                         state change (put/evict/pin/unpin)
//	objects/<sha256>.json    manifest payloads, named by the hex
//	                         SHA-256 of their bytes
//	quarantine/<sha256>.json corrupt payloads moved aside on a
//	                         checksum mismatch (never served)
//
// Durability contract:
//
//   - Objects are written tmp+rename (fsync before rename), so a crash
//     mid-write leaves either the old state or the new one, never a
//     torn payload under a live name.
//   - The journal is append-only; each record is one line, synced after
//     write. Recovery tolerates a truncated tail: replay stops at the
//     first unparsable line, counts it, and the next compaction
//     rewrites a clean journal (again tmp+rename).
//   - Every payload read re-verifies its SHA-256 against the name it
//     was stored under. A mismatch quarantines the object, drops the
//     entry, and bumps ledger/integrity_failures — corruption degrades
//     to a cache miss, never to serving wrong bytes and never to a
//     panic.
//
// Retention is bounded by entry count and total payload bytes with
// tail-biased eviction: when over a cap, the oldest entry goes first —
// except entries pinned as named baselines, which are never evicted
// (regression tracking must not silently lose its reference point).
// Instruments land in the registry the caller provides (the
// observatory points it at its self-registry): ledger/entries and
// ledger/bytes gauges, ledger/puts, ledger/hits, ledger/misses,
// ledger/evictions, ledger/integrity_failures and
// ledger/journal_recoveries counters.
package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"github.com/moatlab/melody/internal/obs"
	"github.com/moatlab/melody/internal/obs/svclog"
)

// Retention caps. Manifests from the paper's sweeps are hundreds of
// kilobytes; 512 entries / 1 GiB holds months of routine runs while
// keeping the worst-case directory scan trivial.
const (
	maxEntries = 512
	maxBytes   = 1 << 30
)

// ErrUnknownRef marks a Pin whose reference names no stored entry.
var ErrUnknownRef = errors.New("ledger: unknown spec hash")

// ErrBadName marks a baseline name outside the safe charset.
var ErrBadName = errors.New("ledger: baseline name must match [A-Za-z0-9._-]{1,64}")

var nameRe = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// Entry is one stored manifest's index record.
type Entry struct {
	// SpecHash is the content address of the RunSpec that produced the
	// manifest — the resubmission cache key.
	SpecHash string `json:"spec_hash"`
	// Address is the manifest's content address (sha256 under the
	// StripHostTime projection) — the cross-run comparison identity.
	Address string `json:"address"`
	// Digest is the hex SHA-256 of the raw stored bytes; it names the
	// object file and is re-verified on every load.
	Digest string `json:"sha256"`
	Size   int64  `json:"size_bytes"`
	// JobID records which job (or "cli") produced the manifest.
	JobID string `json:"job_id,omitempty"`
	// SpecJSON is the canonical encoded RunSpec, kept so a restarted
	// service can rebuild its /runs history with full spec detail.
	SpecJSON json.RawMessage `json:"spec,omitempty"`
	StoredAt time.Time       `json:"stored_at"`
}

// Baseline pins one entry under a name: the reference point future
// runs of the same experiment set are diffed against.
type Baseline struct {
	Name     string    `json:"name"`
	SpecHash string    `json:"spec_hash"`
	Address  string    `json:"address"`
	PinnedAt time.Time `json:"pinned_at"`
}

// record is one journal line. Op is "put", "evict", "pin" or "unpin";
// the remaining fields are op-specific.
type record struct {
	Op    string    `json:"op"`
	Time  time.Time `json:"time"`
	Entry *Entry    `json:"entry,omitempty"`
	// SpecHash identifies the evicted/pinned entry; Reason
	// distinguishes cap eviction from quarantine.
	SpecHash string `json:"spec_hash,omitempty"`
	Reason   string `json:"reason,omitempty"`
	// Name/Address carry baseline pins.
	Name    string `json:"name,omitempty"`
	Address string `json:"address,omitempty"`
}

// Stats is the ledger's lifetime activity (monotonic except the
// occupancy fields).
type Stats struct {
	Entries           int    `json:"entries"`
	Bytes             int64  `json:"bytes"`
	Baselines         int    `json:"baselines"`
	Puts              uint64 `json:"puts"`
	Hits              uint64 `json:"hits"`
	Misses            uint64 `json:"misses"`
	Evictions         uint64 `json:"evictions"`
	IntegrityFailures uint64 `json:"integrity_failures"`
	JournalRecoveries uint64 `json:"journal_recoveries"`
}

// Options configures Open.
type Options struct {
	// Registry receives the ledger/* instruments (nil = uninstrumented).
	Registry *obs.Registry
	// Log receives operational lines — recovery, quarantine, eviction
	// (nil = silent).
	Log *slog.Logger
}

// Ledger is the durable store. All methods are safe for concurrent
// use; payload reads and writes happen under one mutex (manifests are
// small and the call sites are admission paths, not hot loops).
type Ledger struct {
	dir string
	log *slog.Logger

	puts       *obs.Counter
	hits       *obs.Counter
	misses     *obs.Counter
	evictions  *obs.Counter
	integrity  *obs.Counter
	recoveries *obs.Counter
	entriesG   *obs.Gauge
	bytesG     *obs.Gauge
	baselinesG *obs.Gauge

	mu        sync.Mutex
	journal   *os.File
	runs      *obs.Retention[string, *Entry] // by spec hash
	baselines map[string]Baseline
	stats     Stats
}

// Open loads (or initializes) the ledger rooted at dir. Recovery is
// tolerant: a truncated journal tail is dropped and counted, entries
// whose object file vanished are dropped with an integrity bump, and
// the journal is compacted to a clean snapshot before Open returns.
// The ledger retains up to 512 entries and 1 GiB of manifests.
func Open(dir string, opt Options) (*Ledger, error) {
	return openCapped(dir, opt, maxEntries, maxBytes)
}

func openCapped(dir string, opt Options, entryCap int, byteCap int64) (*Ledger, error) {
	log := opt.Log
	if log == nil {
		log = svclog.Discard()
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	l := &Ledger{
		dir:        dir,
		log:        log,
		puts:       opt.Registry.Counter("ledger/puts"),
		hits:       opt.Registry.Counter("ledger/hits"),
		misses:     opt.Registry.Counter("ledger/misses"),
		evictions:  opt.Registry.Counter("ledger/evictions"),
		integrity:  opt.Registry.Counter("ledger/integrity_failures"),
		recoveries: opt.Registry.Counter("ledger/journal_recoveries"),
		entriesG:   opt.Registry.Gauge("ledger/entries"),
		bytesG:     opt.Registry.Gauge("ledger/bytes"),
		baselinesG: opt.Registry.Gauge("ledger/baselines"),
		runs:       obs.NewRetention[string, *Entry](entryCap, byteCap),
		baselines:  map[string]Baseline{},
	}
	if err := l.replay(); err != nil {
		return nil, err
	}
	// Compact: rewrite the journal from live state so a recovered tail
	// (or accumulated dead records) does not survive to the next crash.
	if err := l.compact(); err != nil {
		return nil, err
	}
	j, err := os.OpenFile(l.journalPath(), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: open journal: %w", err)
	}
	l.journal = j
	l.syncGauges()
	return l, nil
}

func (l *Ledger) journalPath() string { return filepath.Join(l.dir, "journal.jsonl") }

func (l *Ledger) objectPath(digest string) string {
	return filepath.Join(l.dir, "objects", digest+".json")
}

func (l *Ledger) quarantinePath(digest string) string {
	return filepath.Join(l.dir, "quarantine", digest+".json")
}

// replay rebuilds the in-memory index from the journal. It stops at
// the first unparsable line — the tolerated truncated tail a crash
// mid-append leaves behind — and drops entries whose object file is
// gone (deleted out of band, or a crash between journal append and a
// compaction that never happened).
func (l *Ledger) replay() error {
	data, err := os.ReadFile(l.journalPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ledger: read journal: %w", err)
	}
	start := 0
	for start < len(data) {
		end := start
		for end < len(data) && data[end] != '\n' {
			end++
		}
		line := data[start:end]
		terminated := end < len(data)
		var rec record
		if len(line) > 0 {
			if err := json.Unmarshal(line, &rec); err != nil || !terminated {
				// Truncated or torn tail: a crash mid-append. Everything
				// before this line replayed fine; drop the rest.
				l.stats.JournalRecoveries++
				l.recoveries.Inc()
				l.log.Warn("ledger journal tail unreadable; recovering to last good record",
					"offset", start, "discarded_bytes", len(data)-start)
				break
			}
			l.applyLocked(rec)
		}
		start = end + 1
	}
	// Validate survivors against the object directory.
	for i := l.runs.Len() - 1; i >= 0; i-- {
		e := l.runs.At(i)
		if _, err := os.Stat(l.objectPath(e.Digest)); err != nil {
			l.runs.Delete(e.SpecHash)
			l.stats.IntegrityFailures++
			l.integrity.Inc()
			l.log.Warn("ledger entry dropped: object file missing",
				svclog.KeySpecHash, e.SpecHash, "object", e.Digest)
		}
	}
	// A baseline whose entry vanished is unpinned rather than left
	// dangling.
	for name, b := range l.baselines {
		if _, ok := l.runs.Get(b.SpecHash); !ok {
			delete(l.baselines, name)
			l.log.Warn("ledger baseline unpinned: entry missing", "baseline", name,
				svclog.KeySpecHash, b.SpecHash)
		}
	}
	return nil
}

// applyLocked folds one journal record into the index.
func (l *Ledger) applyLocked(rec record) {
	switch rec.Op {
	case "put":
		if rec.Entry == nil {
			return
		}
		e := *rec.Entry
		l.runs.Put(e.SpecHash, &e, e.Size)
	case "evict":
		l.runs.Delete(rec.SpecHash)
	case "pin":
		l.baselines[rec.Name] = Baseline{
			Name: rec.Name, SpecHash: rec.SpecHash, Address: rec.Address, PinnedAt: rec.Time,
		}
	case "unpin":
		delete(l.baselines, rec.Name)
	}
}

// compact rewrites the journal as a minimal snapshot of live state,
// tmp+rename so a crash leaves either journal intact.
func (l *Ledger) compact() error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < l.runs.Len(); i++ {
		e := l.runs.At(i)
		if err := enc.Encode(record{Op: "put", Time: e.StoredAt, Entry: e}); err != nil {
			return fmt.Errorf("ledger: compact: %w", err)
		}
	}
	for _, name := range sortedNames(l.baselines) {
		b := l.baselines[name]
		if err := enc.Encode(record{Op: "pin", Time: b.PinnedAt, Name: b.Name,
			SpecHash: b.SpecHash, Address: b.Address}); err != nil {
			return fmt.Errorf("ledger: compact: %w", err)
		}
	}
	if err := writeAtomic(l.journalPath(), buf.Bytes()); err != nil {
		return fmt.Errorf("ledger: compact: %w", err)
	}
	return nil
}

// writeAtomic replaces path crash-safely: the bytes go to a temp file
// in the same directory, are fsynced, and only then renamed over path,
// so a crash leaves the old file or the new one, never a torn one.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

func sortedNames(m map[string]Baseline) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// appendLocked journals one record (synced, so the index survives a
// crash immediately after the mutating call returns).
func (l *Ledger) appendLocked(rec record) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := l.journal.Write(append(raw, '\n')); err != nil {
		return err
	}
	return l.journal.Sync()
}

// Put stores one manifest under its spec hash. Identical re-puts (same
// payload digest) are no-ops; a changed payload for the same spec hash
// replaces the old entry. The signature matches jobs.RunStore, so a
// Ledger plugs into the job manager directly.
func (l *Ledger) Put(specHash, address string, manifest, specJSON []byte, jobID string) error {
	sum := sha256.Sum256(manifest)
	digest := hex.EncodeToString(sum[:])
	now := time.Now().UTC()

	l.mu.Lock()
	defer l.mu.Unlock()
	old, ok := l.runs.Get(specHash)
	if ok && old.Digest == digest {
		return nil
	}
	if err := writeAtomic(l.objectPath(digest), manifest); err != nil {
		return fmt.Errorf("ledger: put: %w", err)
	}

	e := Entry{
		SpecHash: specHash,
		Address:  address,
		Digest:   digest,
		Size:     int64(len(manifest)),
		JobID:    jobID,
		SpecJSON: append(json.RawMessage(nil), specJSON...),
		StoredAt: now,
	}
	if err := l.appendLocked(record{Op: "put", Time: now, Entry: &e}); err != nil {
		os.Remove(l.objectPath(digest))
		return fmt.Errorf("ledger: put: journal: %w", err)
	}
	l.runs.Put(specHash, &e, e.Size)
	if ok {
		os.Remove(l.objectPath(old.Digest))
	}
	l.stats.Puts++
	l.puts.Inc()
	// If every older entry is a pinned baseline, the cap is exceeded
	// rather than a baseline lost — that state is logged, not hidden.
	if _, err := l.runs.Evict(l.pinnedLocked, false, l.evictLocked); errors.Is(err, obs.ErrAllProtected) {
		l.log.Warn("ledger over capacity but every older entry is a pinned baseline; not evicting",
			"entries", l.runs.Len(), "bytes", l.runs.Bytes())
	} else if err != nil {
		l.log.Error("ledger evict journal append failed", "err", err.Error())
	}
	l.syncGauges()
	return nil
}

// evictLocked journals one capacity eviction and deletes its object;
// the caller drops the entry from the index.
func (l *Ledger) evictLocked(e *Entry) error {
	if err := l.appendLocked(record{Op: "evict", Time: time.Now().UTC(),
		SpecHash: e.SpecHash, Reason: "capacity"}); err != nil {
		return err
	}
	os.Remove(l.objectPath(e.Digest))
	l.stats.Evictions++
	l.evictions.Inc()
	l.log.Info("ledger entry evicted", svclog.KeySpecHash, e.SpecHash,
		"size_bytes", e.Size, "stored_at", e.StoredAt)
	return nil
}

func (l *Ledger) pinnedLocked(e *Entry) bool {
	for _, b := range l.baselines {
		if b.SpecHash == e.SpecHash {
			return true
		}
	}
	return false
}

// Get returns the manifest stored for specHash, re-verifying its
// SHA-256 on the way out. A checksum mismatch (or unreadable file)
// quarantines the object, drops the entry, bumps
// ledger/integrity_failures, and reports a miss — the caller re-runs
// the spec instead of serving corrupt bytes.
func (l *Ledger) Get(specHash string) ([]byte, string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.runs.Get(specHash)
	if !ok {
		l.stats.Misses++
		l.misses.Inc()
		return nil, "", false
	}
	data, err := os.ReadFile(l.objectPath(e.Digest))
	if err == nil {
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) == e.Digest {
			l.stats.Hits++
			l.hits.Inc()
			return data, e.Address, true
		}
		err = fmt.Errorf("checksum mismatch (want %s)", e.Digest)
	}
	l.quarantineLocked(e, err)
	return nil, "", false
}

// quarantineLocked moves a failed object aside and drops its entry.
func (l *Ledger) quarantineLocked(e *Entry, cause error) {
	l.stats.IntegrityFailures++
	l.stats.Misses++
	l.integrity.Inc()
	l.misses.Inc()
	os.MkdirAll(filepath.Join(l.dir, "quarantine"), 0o755)
	if err := os.Rename(l.objectPath(e.Digest), l.quarantinePath(e.Digest)); err != nil {
		// Unreadable and unmovable: remove the entry anyway; the object
		// file (if any) stays for manual inspection.
		l.log.Error("ledger quarantine rename failed", "err", err.Error())
	}
	if err := l.appendLocked(record{Op: "evict", Time: time.Now().UTC(),
		SpecHash: e.SpecHash, Reason: "quarantine"}); err != nil {
		l.log.Error("ledger quarantine journal append failed", "err", err.Error())
	}
	l.runs.Delete(e.SpecHash)
	l.syncGauges()
	l.log.Error("ledger integrity failure: object quarantined",
		svclog.KeySpecHash, e.SpecHash, "object", e.Digest, "err", cause.Error())
}

// Stat reports whether specHash is stored, and its manifest address,
// without reading the payload.
func (l *Ledger) Stat(specHash string) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.runs.Get(specHash)
	if !ok {
		return "", false
	}
	return e.Address, true
}

// Entry returns the index record for specHash.
func (l *Ledger) Entry(specHash string) (Entry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.runs.Get(specHash)
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// Entries lists the index oldest-first (payloads stay on disk).
func (l *Ledger) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Entry, 0, l.runs.Len())
	for i := 0; i < l.runs.Len(); i++ {
		out = append(out, *l.runs.At(i))
	}
	return out
}

// Len returns the number of stored entries.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.runs.Len()
}

// Pin names specHash as baseline name (replacing any previous pin of
// that name). The entry must exist; pinned entries are exempt from
// eviction until unpinned.
func (l *Ledger) Pin(name, specHash string) (Baseline, error) {
	if !nameRe.MatchString(name) {
		return Baseline{}, ErrBadName
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.runs.Get(specHash)
	if !ok {
		return Baseline{}, fmt.Errorf("%w: %s", ErrUnknownRef, specHash)
	}
	b := Baseline{Name: name, SpecHash: specHash, Address: e.Address, PinnedAt: time.Now().UTC()}
	if err := l.appendLocked(record{Op: "pin", Time: b.PinnedAt, Name: name,
		SpecHash: specHash, Address: e.Address}); err != nil {
		return Baseline{}, fmt.Errorf("ledger: pin: journal: %w", err)
	}
	l.baselines[name] = b
	l.syncGauges()
	l.log.Info("ledger baseline pinned", "baseline", name,
		svclog.KeySpecHash, specHash, "address", e.Address)
	return b, nil
}

// Unpin removes a named baseline; ok is false if it did not exist.
func (l *Ledger) Unpin(name string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.baselines[name]; !ok {
		return false
	}
	if err := l.appendLocked(record{Op: "unpin", Time: time.Now().UTC(), Name: name}); err != nil {
		l.log.Error("ledger unpin journal append failed", "err", err.Error())
		return false
	}
	delete(l.baselines, name)
	l.syncGauges()
	l.log.Info("ledger baseline unpinned", "baseline", name)
	return true
}

// Baseline returns one named baseline.
func (l *Ledger) Baseline(name string) (Baseline, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.baselines[name]
	return b, ok
}

// Baselines lists pinned baselines sorted by name.
func (l *Ledger) Baselines() []Baseline {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Baseline, 0, len(l.baselines))
	for _, name := range sortedNames(l.baselines) {
		out = append(out, l.baselines[name])
	}
	return out
}

// Stats returns the ledger's counters and occupancy.
func (l *Ledger) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Entries = l.runs.Len()
	s.Bytes = l.runs.Bytes()
	s.Baselines = len(l.baselines)
	return s
}

func (l *Ledger) syncGauges() {
	l.entriesG.Set(float64(l.runs.Len()))
	l.bytesG.Set(float64(l.runs.Bytes()))
	l.baselinesG.Set(float64(len(l.baselines)))
}

// Close releases the journal handle. The ledger must not be used after
// Close.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.journal == nil {
		return nil
	}
	err := l.journal.Close()
	l.journal = nil
	return err
}
