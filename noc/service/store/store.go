// Package store is the durable layer under the noc/service result
// cache: a directory of checksummed, content-addressed Result entries
// keyed by canonical spec JSON, so a restarted quarcd serves its warm
// set bitwise-identical to the process that computed it.
//
// Durability discipline:
//
//   - writes are atomic: each entry goes to a ".tmp-*" file first,
//     fsynced, then renamed into place, so a crash never leaves a
//     half-visible entry — only tmp debris, which Open deletes;
//   - every entry carries a CRC-32 and its own key; Get and the Open
//     scan re-validate both, and anything that fails — torn writes,
//     flipped bytes, foreign or truncated files — is moved to the
//     quarantine/ subdirectory, never served, and recomputed upstream;
//   - a read that fails before there are bytes to check (EISDIR,
//     EMFILE) is a miss that quarantines nothing, since it says nothing
//     about the file;
//   - file names are the FNV-1a fingerprint of the key with collision
//     probing, and the embedded key is authoritative, so two specs can
//     never alias one entry.
//
// The tests make each of these faults on real files (a torn or flipped
// entry, a directory where an entry should be), so the store has no
// fault seam of its own.
//
// The store is safe for concurrent use. It deliberately holds no
// package-level state; every mutable structure hangs off one *Store.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"quarc/noc"
)

const (
	// entryExt suffixes every live entry file.
	entryExt = ".qre"
	// tmpPrefix marks in-progress writes; leftovers are crash debris.
	tmpPrefix = ".tmp-"
	// quarantineDir collects entries that failed validation.
	quarantineDir = "quarantine"
)

// Config configures Open.
type Config struct {
	// Dir is the store directory; created if missing.
	Dir string
}

// Store is one open result store. All methods are safe for concurrent
// use.
type Store struct {
	dir string

	mu    sync.Mutex
	index map[string]string // key -> entry file name
	names map[string]string // entry file name -> key

	quarantined atomic.Uint64
}

// Open scans cfg.Dir, deletes tmp debris from interrupted writes,
// quarantines every entry that fails validation, leaves in place every
// file it cannot read, and indexes the rest.
// The directory (and its quarantine/ subdirectory) is created if
// missing.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: no directory configured")
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", cfg.Dir, err)
	}
	s := &Store{
		dir:   cfg.Dir,
		index: make(map[string]string),
		names: make(map[string]string),
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", cfg.Dir, err)
	}
	for _, e := range entries { // ReadDir sorts, so rebuild order is stable
		name := e.Name()
		switch {
		case e.IsDir():
		case strings.HasPrefix(name, tmpPrefix):
			// An interrupted write: never renamed, so never visible.
			os.Remove(filepath.Join(cfg.Dir, name))
		case strings.HasSuffix(name, entryExt):
			key, _, err := s.readEntry(name)
			_, dup := s.index[key]
			switch {
			case err != nil && !errors.Is(err, ErrCorrupt):
				// The read failed (EISDIR, EMFILE): that says nothing
				// about the bytes, so the file stays, unindexed, for
				// the next Open to retry.
			case err != nil || dup:
				// A damaged entry, or a second live file claiming one
				// key (e.g. debris from a former collision chain): keep
				// the first, quarantine the rest.
				s.quarantine(name)
			default:
				s.index[key] = name
				s.names[name] = key
			}
		}
	}
	return s, nil
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Quarantined returns how many entries have been quarantined since
// Open, including those caught during the Open scan itself.
func (s *Store) Quarantined() uint64 { return s.quarantined.Load() }

// Keys snapshots the live entry keys (canonical spec encodings),
// sorted. The serving layer's fingerprint lookup scans it to find
// store-warm entries by content address.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Get returns the stored Result for key. The entry is re-read and
// re-validated from disk on every call, so corruption that happened
// after Open is still caught here: a damaged entry is quarantined and
// reported as a miss, never served. A read that fails is a miss that
// quarantines nothing; a file gone from under the store is forgotten.
func (s *Store) Get(key string) (noc.Result, bool) {
	s.mu.Lock()
	name, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		return noc.Result{}, false
	}
	gotKey, val, err := s.readEntry(name)
	if err != nil && !errors.Is(err, ErrCorrupt) {
		// The read failed (EMFILE under load, say): that says nothing
		// about the bytes on disk, unless there are none.
		if errors.Is(err, fs.ErrNotExist) {
			s.forget(key, name)
		}
		return noc.Result{}, false
	}
	if err != nil || gotKey != key {
		s.drop(key, name)
		return noc.Result{}, false
	}
	var res noc.Result
	if err := json.Unmarshal(val, &res); err != nil {
		s.drop(key, name)
		return noc.Result{}, false
	}
	return res, true
}

// Put durably stores the Result for key, overwriting any previous
// entry: encode, write to a tmp file, fsync, rename into place.
func (s *Store) Put(key string, res noc.Result) error {
	val, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("store: encoding result: %w", err)
	}
	data := encodeEntry(key, val)
	name := s.fileFor(key)
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: creating tmp file: %w", err)
	}
	if err := writeSync(tmp, data); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing %s: %w", name, err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: publishing %s: %w", name, err)
	}
	s.mu.Lock()
	s.index[key] = name
	s.names[name] = key
	s.mu.Unlock()
	return nil
}

// writeSync writes data and forces it to media before closing.
func writeSync(f *os.File, data []byte) error {
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fileFor picks the entry file name for key: the fingerprint of the
// key, probing a numeric suffix past any name already claimed by a
// different key (an FNV-1a collision).
func (s *Store) fileFor(key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name, ok := s.index[key]; ok {
		return name
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	base := fmt.Sprintf("%016x", h.Sum64())
	for i := 0; ; i++ {
		name := base + entryExt
		if i > 0 {
			name = fmt.Sprintf("%s-%d%s", base, i, entryExt)
		}
		if claimed, ok := s.names[name]; !ok || claimed == key {
			return name
		}
	}
}

// readEntry reads and validates one entry file. A validation failure
// is ErrCorrupt; a failed read is not.
func (s *Store) readEntry(name string) (key string, val []byte, err error) {
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return "", nil, fmt.Errorf("store: reading %s: %w", name, err)
	}
	return decodeEntry(data)
}

// drop quarantines a failed entry and forgets its index mapping.
func (s *Store) drop(key, name string) {
	s.forget(key, name)
	s.quarantine(name)
}

// forget removes an entry's index mapping.
func (s *Store) forget(key, name string) {
	s.mu.Lock()
	delete(s.index, key)
	delete(s.names, name)
	s.mu.Unlock()
}

// quarantine moves a bad file into the quarantine directory (removing
// it outright if the move fails) so it can never be served again but
// stays available for a post-mortem.
func (s *Store) quarantine(name string) {
	s.quarantined.Add(1)
	src := filepath.Join(s.dir, name)
	if err := os.Rename(src, filepath.Join(s.dir, quarantineDir, name)); err != nil {
		os.Remove(src)
	}
}
