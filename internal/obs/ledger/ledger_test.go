package ledger

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// put files a synthetic manifest and returns its bytes.
func put(t *testing.T, l *Ledger, n int) []byte {
	t.Helper()
	manifest := []byte(fmt.Sprintf(`{"run":%d,"payload":"manifest body %d"}`, n, n))
	spec := []byte(fmt.Sprintf(`{"seed":%d}`, n))
	if err := l.Put(hash(n), addr(n), manifest, spec, fmt.Sprintf("run-%06d", n)); err != nil {
		t.Fatalf("Put(%d): %v", n, err)
	}
	return manifest
}

func hash(n int) string { return fmt.Sprintf("sha256:spec%04d", n) }
func addr(n int) string { return fmt.Sprintf("sha256:addr%04d", n) }

func open(t *testing.T, dir string, opt Options) *Ledger {
	t.Helper()
	return openCaps(t, dir, opt, maxEntries, maxBytes)
}

// openCaps is open with retention caps below the production ones.
func openCaps(t *testing.T, dir string, opt Options, entryCap int, byteCap int64) *Ledger {
	t.Helper()
	l, err := openCapped(dir, opt, entryCap, byteCap)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestPutGetRoundtrip(t *testing.T) {
	l := open(t, t.TempDir(), Options{})
	want := put(t, l, 1)

	got, a, ok := l.Get(hash(1))
	if !ok || !bytes.Equal(got, want) || a != addr(1) {
		t.Fatalf("Get = (%q, %q, %v), want (%q, %q, true)", got, a, ok, want, addr(1))
	}
	if _, _, ok := l.Get(hash(99)); ok {
		t.Fatal("Get on unknown hash reported ok")
	}
	if a, ok := l.Stat(hash(1)); !ok || a != addr(1) {
		t.Fatalf("Stat = (%q, %v)", a, ok)
	}
	st := l.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRestartReopenEquality is the durability pin: bytes and addresses
// served after a close/reopen must equal the originals exactly, and
// pinned baselines must survive with them.
func TestRestartReopenEquality(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{})
	var want [][]byte
	for i := 1; i <= 3; i++ {
		want = append(want, put(t, l, i))
	}
	if _, err := l.Pin("golden", hash(2)); err != nil {
		t.Fatalf("Pin: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := open(t, dir, Options{})
	if l2.Len() != 3 {
		t.Fatalf("reopened Len = %d, want 3", l2.Len())
	}
	for i := 1; i <= 3; i++ {
		got, a, ok := l2.Get(hash(i))
		if !ok {
			t.Fatalf("entry %d lost across reopen", i)
		}
		if !bytes.Equal(got, want[i-1]) {
			t.Fatalf("entry %d bytes differ across reopen:\n got %q\nwant %q", i, got, want[i-1])
		}
		if a != addr(i) {
			t.Fatalf("entry %d address = %q across reopen, want %q", i, a, addr(i))
		}
	}
	b, ok := l2.Baseline("golden")
	if !ok || b.SpecHash != hash(2) || b.Address != addr(2) {
		t.Fatalf("baseline across reopen = (%+v, %v)", b, ok)
	}
	// Spec JSON survives too — a restarted service rebuilds history
	// with full spec detail.
	e, ok := l2.Entry(hash(1))
	if !ok || string(e.SpecJSON) != `{"seed":1}` || e.JobID != "run-000001" {
		t.Fatalf("entry metadata across reopen = (%+v, %v)", e, ok)
	}
}

// TestTruncatedJournalTail simulates a crash mid-append: a torn final
// line must be dropped (counted as a recovery) while every record
// before it replays intact.
func TestTruncatedJournalTail(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{})
	want := put(t, l, 1)
	put(t, l, 2)
	l.Close()

	// Tear the tail: keep entry 1's record whole, chop entry 2's line
	// mid-JSON and leave it unterminated.
	journal := filepath.Join(dir, "journal.jsonl")
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("journal has %d lines, want >= 2", len(lines))
	}
	torn := append(append([]byte(nil), lines[0]...), lines[1][:len(lines[1])/2]...)
	if err := os.WriteFile(journal, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := open(t, dir, Options{})
	if got := l2.Stats().JournalRecoveries; got != 1 {
		t.Fatalf("JournalRecoveries = %d, want 1", got)
	}
	got, _, ok := l2.Get(hash(1))
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("pre-tear entry not recovered: (%q, %v)", got, ok)
	}
	if _, _, ok := l2.Get(hash(2)); ok {
		t.Fatal("torn-tail entry should have been dropped")
	}
	// Recovery compacts: a second reopen must see a clean journal
	// (no recovery counted).
	l2.Close()
	l3 := open(t, dir, Options{})
	if got := l3.Stats().JournalRecoveries; got != 0 {
		t.Fatalf("JournalRecoveries after compaction = %d, want 0", got)
	}
}

// TestCorruptObjectQuarantined flips bits in a stored object: Get must
// degrade to a miss (never serve wrong bytes, never panic), bump the
// integrity counter, and move the object into quarantine/.
func TestCorruptObjectQuarantined(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{})
	put(t, l, 1)
	e, _ := l.Entry(hash(1))

	obj := filepath.Join(dir, "objects", e.Digest+".json")
	if err := os.WriteFile(obj, []byte(`{"run":1,"payload":"tampered"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, ok := l.Get(hash(1)); ok {
		t.Fatal("Get served a corrupt object")
	}
	st := l.Stats()
	if st.IntegrityFailures != 1 {
		t.Fatalf("IntegrityFailures = %d, want 1", st.IntegrityFailures)
	}
	if st.Entries != 0 {
		t.Fatalf("corrupt entry still indexed: Entries = %d", st.Entries)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", e.Digest+".json")); err != nil {
		t.Fatalf("object not quarantined: %v", err)
	}
	// The ledger keeps working: the same spec can be re-stored.
	want := put(t, l, 1)
	if got, _, ok := l.Get(hash(1)); !ok || !bytes.Equal(got, want) {
		t.Fatal("re-put after quarantine failed")
	}
}

// TestMissingObjectDroppedOnOpen covers the other corruption path: the
// journal references an object whose file vanished. Open drops the
// entry with an integrity bump instead of serving a dangling index.
func TestMissingObjectDroppedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{})
	put(t, l, 1)
	put(t, l, 2)
	e, _ := l.Entry(hash(1))
	l.Close()

	if err := os.Remove(filepath.Join(dir, "objects", e.Digest+".json")); err != nil {
		t.Fatal(err)
	}
	l2 := open(t, dir, Options{})
	if _, _, ok := l2.Get(hash(1)); ok {
		t.Fatal("entry with missing object survived reopen")
	}
	if _, _, ok := l2.Get(hash(2)); !ok {
		t.Fatal("intact entry lost during reopen")
	}
	if got := l2.Stats().IntegrityFailures; got != 1 {
		t.Fatalf("IntegrityFailures = %d, want 1", got)
	}
}

// TestEvictionProtectsPinnedBaselines: over the entry cap the oldest
// unpinned entry goes; a pinned baseline is never the victim.
func TestEvictionProtectsPinnedBaselines(t *testing.T) {
	l := openCaps(t, t.TempDir(), Options{}, 3, maxBytes)
	put(t, l, 1)
	put(t, l, 2)
	if _, err := l.Pin("golden", hash(1)); err != nil {
		t.Fatalf("Pin: %v", err)
	}
	put(t, l, 3)
	put(t, l, 4) // over cap: oldest unpinned (2) must go, 1 is pinned

	if _, ok := l.Stat(hash(1)); !ok {
		t.Fatal("pinned baseline was evicted")
	}
	if _, ok := l.Stat(hash(2)); ok {
		t.Fatal("oldest unpinned entry survived over-cap put")
	}
	st := l.Stats()
	if st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 3 entries / 1 eviction", st)
	}
	// Unpinning re-exposes the old baseline to eviction.
	if !l.Unpin("golden") {
		t.Fatal("Unpin failed")
	}
	put(t, l, 5)
	if _, ok := l.Stat(hash(1)); ok {
		t.Fatal("unpinned entry not evicted as oldest")
	}
}

func TestByteCapEviction(t *testing.T) {
	l := openCaps(t, t.TempDir(), Options{}, maxEntries, 100)
	put(t, l, 1) // ~40 bytes each
	put(t, l, 2)
	put(t, l, 3)
	if st := l.Stats(); st.Bytes > 100 {
		t.Fatalf("bytes = %d, want <= 100 after eviction", st.Bytes)
	}
	if _, ok := l.Stat(hash(3)); !ok {
		t.Fatal("newest entry must survive byte-cap eviction")
	}
}

func TestPinValidation(t *testing.T) {
	l := open(t, t.TempDir(), Options{})
	put(t, l, 1)
	if _, err := l.Pin("bad name!", hash(1)); err == nil {
		t.Fatal("Pin accepted a name outside the safe charset")
	}
	if _, err := l.Pin("ok", "sha256:nope"); err == nil {
		t.Fatal("Pin accepted an unknown spec hash")
	}
	if _, err := l.Pin("ok", hash(1)); err != nil {
		t.Fatalf("Pin: %v", err)
	}
	if bs := l.Baselines(); len(bs) != 1 || bs[0].Name != "ok" {
		t.Fatalf("Baselines = %+v", bs)
	}
	if l.Unpin("missing") {
		t.Fatal("Unpin of unknown name reported true")
	}
}

// TestIdenticalRePutIsNoOp: same spec hash, same payload — no new
// journal record, no counter bump.
func TestIdenticalRePutIsNoOp(t *testing.T) {
	l := open(t, t.TempDir(), Options{})
	put(t, l, 1)
	put(t, l, 1)
	if st := l.Stats(); st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats after identical re-put = %+v", st)
	}
}
