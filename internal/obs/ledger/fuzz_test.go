package ledger

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// stamp matches each time stamp a journal line carries.
var stamp = regexp.MustCompile(`"(time|stored_at|pinned_at)":"[^"]*"`)

// FuzzLedgerReplay opens a ledger whose journal is arbitrary bytes,
// beside the object files of a real ledger. Open must neither panic nor
// fail: it recovers to the last good record, so it must hold exactly
// the state that the journal's longest run of complete, well-formed
// lines gives, and count one recovery when it dropped a tail. Opening
// the directory again must give the same index and baselines. The seed
// corpus is a real journal, its stamps fixed, cut at every offset, and
// with one byte flipped at every eighth offset.
func FuzzLedgerReplay(f *testing.F) {
	src := f.TempDir()
	l, err := Open(src, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		if err := l.Put(hash(n), addr(n), []byte(fmt.Sprint(n)), nil, ""); err != nil {
			f.Fatal(err)
		}
	}
	for n, name := range []string{"golden", "tmp"} {
		if _, err := l.Pin(name, hash(n)); err != nil {
			f.Fatal(err)
		}
	}
	l.Unpin("tmp")
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(src, "journal.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	// One fixed stamp makes the corpus the same on every run: JSON
	// drops a stamp's trailing zero digits, so time.Now() stamps vary
	// in length.
	journal = stamp.ReplaceAll(journal, []byte(`"$1":"2026-01-02T03:04:05.123456789Z"`))
	objects, err := os.ReadDir(filepath.Join(src, "objects"))
	if err != nil {
		f.Fatal(err)
	}
	payloads := map[string][]byte{}
	for _, o := range objects {
		if payloads[o.Name()], err = os.ReadFile(filepath.Join(src, "objects", o.Name())); err != nil {
			f.Fatal(err)
		}
	}
	for i := range journal {
		f.Add(journal[:i])
		if i%8 == 0 {
			flipped := bytes.Clone(journal)
			flipped[i] ^= 0x41
			f.Add(flipped)
		}
	}
	f.Add(journal)

	// openJournal opens a fresh ledger directory holding the objects
	// and the given journal.
	openJournal := func(t *testing.T, journal []byte) (*Ledger, string) {
		t.Helper()
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, p := range payloads {
			if err := os.WriteFile(filepath.Join(dir, "objects", name), p, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		return open(t, dir, Options{}), dir
	}
	state := func(t *testing.T, l *Ledger) []byte {
		t.Helper()
		b, err := json.Marshal(struct {
			Entries   []Entry
			Baselines []Baseline
		}{l.Entries(), l.Baselines()})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Many inputs share a good prefix; open each prefix once.
	wantStates := map[string][]byte{}

	f.Fuzz(func(t *testing.T, journal []byte) {
		got, dir := openJournal(t, journal)

		// The good prefix: every line up to the first one that is
		// unterminated or does not parse as a record.
		good, torn := 0, false
		for good < len(journal) {
			end := bytes.IndexByte(journal[good:], '\n')
			var rec record
			if end < 0 || (end > 0 && json.Unmarshal(journal[good:good+end], &rec) != nil) {
				torn = true
				break
			}
			good += end + 1
		}
		w, ok := wantStates[string(journal[:good])]
		if !ok {
			want, _ := openJournal(t, journal[:good])
			w = state(t, want)
			wantStates[string(journal[:good])] = w
		}
		if g := state(t, got); !bytes.Equal(g, w) {
			t.Fatalf("Open recovered to\n%s\nwant the last good record's state\n%s", g, w)
		}
		if r := got.Stats().JournalRecoveries; r != map[bool]uint64{false: 0, true: 1}[torn] {
			t.Fatalf("JournalRecoveries = %d, torn tail %v", r, torn)
		}

		if err := got.Close(); err != nil {
			t.Fatal(err)
		}
		again := open(t, dir, Options{})
		if g := state(t, again); !bytes.Equal(g, w) {
			t.Fatalf("second Open gives\n%s\nfirst gave\n%s", g, w)
		}
	})
}
