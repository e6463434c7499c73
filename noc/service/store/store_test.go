package store

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quarc/internal/faultinject"
	"quarc/noc"
)

// testResult is a representative Result, including a NaN latency (the
// JSON-null case) and float values that must survive bitwise.
func testResult() noc.Result {
	return noc.Result{
		Evaluator: "simulator",
		Unicast:   37.219384756201,
		Multicast: math.NaN(),
		UnicastN:  12345,
		Generated: 20000,
		Completed: 19999,
		Time:      1.25e5,
		Events:    987654,
		MaxUtil:   0.731,
	}
}

func resultJSON(t *testing.T, r noc.Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func open(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// entryFiles lists the live entry files in dir.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), entryExt) {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestPutGetReopen pins the durability contract: a stored Result is
// served bitwise-identical, both within the writing process and by a
// fresh Open of the same directory.
func TestPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, Config{Dir: dir})
	key, want := `{"topology":"quarc","n":16}`, testResult()
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("Get missed a just-Put key")
	}
	if resultJSON(t, got) != resultJSON(t, want) {
		t.Errorf("round trip differs:\n got:  %s\n want: %s", resultJSON(t, got), resultJSON(t, want))
	}
	if _, ok := s.Get("other"); ok {
		t.Error("Get hit an absent key")
	}

	// Overwrite keeps one entry per key.
	want.Unicast = 38.5
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || len(entryFiles(t, dir)) != 1 {
		t.Errorf("after overwrite: Len=%d, %d files", s.Len(), len(entryFiles(t, dir)))
	}

	// A fresh Open rebuilds the index and serves the same bytes.
	s2 := open(t, Config{Dir: dir})
	if s2.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", s2.Len())
	}
	got2, ok := s2.Get(key)
	if !ok || resultJSON(t, got2) != resultJSON(t, want) {
		t.Errorf("reopened Get = %v, %v", got2, ok)
	}
	if q := s2.Quarantined(); q != 0 {
		t.Errorf("clean reopen quarantined %d entries", q)
	}
}

// TestOpenQuarantines pins the rebuild-on-open scan: corrupt,
// truncated, unreadable-frame and duplicate-key entries are all moved
// to quarantine/ and never indexed; tmp debris from interrupted writes
// is deleted.
func TestOpenQuarantines(t *testing.T) {
	dir := t.TempDir()
	s := open(t, Config{Dir: dir})
	if err := s.Put("key-a", testResult()); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key-b", testResult()); err != nil {
		t.Fatal(err)
	}
	files := entryFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("files = %v", files)
	}

	// Flip a byte of one entry (on-media corruption).
	target := filepath.Join(dir, files[0])
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(target, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Truncate the other (torn write that still got renamed somehow).
	if err := os.Truncate(filepath.Join(dir, files[1]), 7); err != nil {
		t.Fatal(err)
	}
	// Crash debris and a duplicate-key entry.
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	dup := encodeEntry("key-c", []byte(`{"evaluator":"model"}`))
	for _, name := range []string{"aaaa.qre", "bbbb.qre"} {
		if err := os.WriteFile(filepath.Join(dir, name), dup, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := open(t, Config{Dir: dir})
	if got := s2.Quarantined(); got != 3 {
		t.Errorf("quarantined = %d, want 3 (corrupt, truncated, duplicate)", got)
	}
	if s2.Len() != 1 {
		t.Errorf("Len = %d, want 1 (only key-c survives)", s2.Len())
	}
	if _, ok := s2.Get("key-a"); ok {
		t.Error("corrupt entry was served")
	}
	if _, ok := s2.Get("key-c"); !ok {
		t.Error("surviving duplicate key missed")
	}
	q, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil || len(q) != 3 {
		t.Errorf("quarantine dir holds %d files (%v), want 3", len(q), err)
	}
	if ents := entryFiles(t, dir); len(ents) != 1 {
		t.Errorf("live entries after scan = %v", ents)
	}
	for _, e := range q {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Errorf("tmp debris %s was quarantined instead of deleted", e.Name())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, tmpPrefix+"123")); !os.IsNotExist(err) {
		t.Error("tmp debris survived Open")
	}
}

// TestGetQuarantinesLiveCorruption pins that Get re-validates from
// disk: an entry damaged after Open is quarantined on read, not served.
func TestGetQuarantinesLiveCorruption(t *testing.T) {
	dir := t.TempDir()
	s := open(t, Config{Dir: dir})
	if err := s.Put("key", testResult()); err != nil {
		t.Fatal(err)
	}
	name := entryFiles(t, dir)[0]
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01 // break the checksum
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("key"); ok {
		t.Fatal("corrupted entry was served")
	}
	if s.Quarantined() != 1 || s.Len() != 0 {
		t.Errorf("quarantined=%d len=%d, want 1, 0", s.Quarantined(), s.Len())
	}
	if _, ok := s.Get("key"); ok {
		t.Error("dropped key still served")
	}
}

// TestGetMissesOnReadError pins that a read failure is not corruption:
// an entry file removed from under the store is a miss, quarantines
// nothing and leaves the index.
func TestGetMissesOnReadError(t *testing.T) {
	dir := t.TempDir()
	s := open(t, Config{Dir: dir})
	if err := s.Put("key", testResult()); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, entryFiles(t, dir)[0])); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("key"); ok {
		t.Fatal("a removed entry was served")
	}
	if s.Quarantined() != 0 || s.Len() != 0 {
		t.Errorf("quarantined=%d len=%d, want 0, 0", s.Quarantined(), s.Len())
	}
}

// TestCollisionProbing pins the fingerprint-collision path: when a
// key's fingerprint file name is already claimed by a different key,
// Put probes to a suffixed name and both keys stay independently
// servable.
func TestCollisionProbing(t *testing.T) {
	dir := t.TempDir()
	s := open(t, Config{Dir: dir})
	keyA, keyB := "collision-victim", "squatter"
	// Plant an entry for keyB at keyA's fingerprint name.
	nameA := s.fileFor(keyA)
	other := testResult()
	other.Evaluator = "model"
	val, err := json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, nameA), encodeEntry(keyB, val), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, Config{Dir: dir})
	if err := s2.Put(keyA, testResult()); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s2.Len())
	}
	gotA, okA := s2.Get(keyA)
	gotB, okB := s2.Get(keyB)
	if !okA || !okB {
		t.Fatalf("Get after collision: okA=%v okB=%v", okA, okB)
	}
	if resultJSON(t, gotA) == resultJSON(t, gotB) {
		t.Error("collision aliased two keys onto one result")
	}
	files := entryFiles(t, dir)
	if len(files) != 2 {
		t.Errorf("files = %v, want 2 (probed name)", files)
	}
}

// TestInjectedWriteFaults drives the store.put seam: a clean injected
// error fails Put; torn and corrupted writes succeed but the damaged
// entry is quarantined at next read instead of served.
func TestInjectedWriteFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind faultinject.Kind
	}{
		{"short-write", faultinject.KindShortWrite},
		{"corrupt", faultinject.KindCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := faultinject.New(1, faultinject.Rule{Point: "store.put", Kind: tc.kind, First: 1})
			s := open(t, Config{Dir: dir, Inject: inj})
			if err := s.Put("key", testResult()); err != nil {
				t.Fatalf("damaged Put failed cleanly: %v", err)
			}
			if _, ok := s.Get("key"); ok {
				t.Fatal("damaged entry was served")
			}
			if s.Quarantined() != 1 {
				t.Errorf("quarantined = %d, want 1", s.Quarantined())
			}
			// The write path has healed (First: 1); the key is servable
			// again.
			if err := s.Put("key", testResult()); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get("key"); !ok {
				t.Error("healed Put not served")
			}
		})
	}

	t.Run("error", func(t *testing.T) {
		dir := t.TempDir()
		inj := faultinject.New(1, faultinject.Rule{Point: "store.put", Kind: faultinject.KindError, First: 1})
		s := open(t, Config{Dir: dir, Inject: inj})
		if err := s.Put("key", testResult()); err == nil {
			t.Fatal("injected write error did not surface")
		}
		if len(entryFiles(t, dir)) != 0 {
			t.Error("failed Put left a visible entry")
		}
	})

	t.Run("get-error", func(t *testing.T) {
		dir := t.TempDir()
		inj := faultinject.New(1, faultinject.Rule{Point: "store.get", Kind: faultinject.KindError, First: 1})
		s := open(t, Config{Dir: dir, Inject: inj})
		if err := s.Put("key", testResult()); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get("key"); ok {
			t.Fatal("injected read error did not miss")
		}
		// A transient read failure must not quarantine a healthy file.
		if s.Quarantined() != 0 {
			t.Errorf("quarantined = %d, want 0", s.Quarantined())
		}
		if _, ok := s.Get("key"); !ok {
			t.Error("entry lost after transient read failure")
		}
	})
}

// TestOpenErrors pins the config and filesystem error paths.
func TestOpenErrors(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Error("Open with no dir succeeded")
	}
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: file}); err == nil {
		t.Error("Open over a plain file succeeded")
	}
}

// TestDecodeEntryRejects pins the framing validation table.
func TestDecodeEntryRejects(t *testing.T) {
	good := encodeEntry("key", []byte("value"))
	cases := map[string][]byte{
		"empty":        {},
		"short":        good[:8],
		"bad magic":    append([]byte("XXXX"), good[4:]...),
		"truncated":    good[:len(good)-6],
		"trailing":     append(append([]byte(nil), good...), 0),
		"bad checksum": append(append([]byte(nil), good[:len(good)-1]...), good[len(good)-1]^1),
	}
	hugeKey := append([]byte(nil), good...)
	hugeKey[4], hugeKey[5] = 0xff, 0xff // keyLen beyond maxEntryKey
	cases["huge key length"] = hugeKey
	for name, data := range cases {
		if _, _, err := decodeEntry(data); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
	key, val, err := decodeEntry(good)
	if err != nil || key != "key" || string(val) != "value" {
		t.Errorf("good entry: %q %q %v", key, val, err)
	}
}
