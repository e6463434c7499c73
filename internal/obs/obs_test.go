package obs

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"quarc/internal/wormhole"
)

// hookCtxForTest builds a distinguishable firing; Msg carries i so
// ordering is checkable downstream.
func hookCtxForTest(i int) wormhole.HookCtx {
	return wormhole.HookCtx{
		Pos:  wormhole.HookPos(i % 5),
		Time: float64(i),
		Node: -1,
		Msg:  int64(i),
	}
}

func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Kind:      Kind(i % 5),
			Multicast: i%7 == 0,
			Node:      int32(i % 16),
			Channel:   int32(i % 224),
			Occupancy: int32(i % 3),
			Msg:       int64(i + 1),
			Time:      float64(i) * 1.5,
			Latency:   float64(i%50) + 0.25,
		}
	}
	return recs
}

// TestFileSinkRoundTrip pins the WAL format: what Append writes,
// ReadFile returns bitwise, across multiple frames.
func TestFileSinkRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.obs")
	s, err := CreateFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(1000)
	// Three frames of different sizes, plus an empty append (no frame).
	for _, cut := range [][2]int{{0, 1}, {1, 400}, {400, 400}, {400, 1000}} {
		if err := s.Append(want[cut[0]:cut[1]]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, wrote %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestReadFileTornTail pins WAL recovery: a file truncated mid-frame
// (the crash shape) reads back the complete frames before the tear,
// without error, at every truncation point.
func TestReadFileTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.obs")
	s, err := CreateFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(100)
	if err := s.Append(recs[:60]); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(recs[60:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame1 := 12 + 60*recordSize
	for _, cut := range []int{
		frame1 + 5,                 // torn second header
		frame1 + 12,                // second payload entirely missing
		frame1 + 12 + 7*recordSize, // torn second payload
		len(full) - 1,              // one byte short
	} {
		torn := filepath.Join(dir, "torn.obs")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(torn)
		if err != nil {
			t.Errorf("cut at %d: %v", cut, err)
			continue
		}
		if len(got) != 60 {
			t.Errorf("cut at %d: recovered %d records, want the 60 of the complete frame", cut, len(got))
		}
	}
}

// TestReadFileMidCorruption pins the flip side of recovery: corruption
// that is not at the tail (bad magic, bad checksum with data after it,
// absurd record count) is an error, not a silent truncation.
func TestReadFileMidCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.obs")
	s, err := CreateFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(100)
	if err := s.Append(recs[:60]); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(recs[60:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func(b []byte)) {
		b := append([]byte(nil), full...)
		mutate(b)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(p); err == nil {
			t.Errorf("%s: ReadFile accepted a corrupt file", name)
		}
	}
	corrupt("magic.obs", func(b []byte) { b[0] = 'X' })
	corrupt("count.obs", func(b []byte) { b[4], b[5], b[6], b[7] = 0xff, 0xff, 0xff, 0xff })
	// Flip a payload byte of the FIRST frame: the checksum fails with a
	// complete frame after it, so this is corruption, not a torn tail.
	corrupt("payload.obs", func(b []byte) { b[20] ^= 0xff })
}

// TestReadFileRejectsUnknownKind pins the kind check on outside input: a
// frame whose checksum is valid but whose record names no hook position
// (kind 5, once the parallel engine's, or any byte up to 255) is a
// corrupt file, not a record Aggregate would silently drop.
func TestReadFileRejectsUnknownKind(t *testing.T) {
	for _, kind := range []byte{5, 255} {
		payload := make([]byte, recordSize)
		encodeRecord(payload, &Record{Node: -1, Channel: 3, Msg: 1, Time: 2})
		payload[0] = kind
		frame := []byte(frameMagic)
		frame = binary.LittleEndian.AppendUint32(frame, 1)
		frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
		frame = append(frame, payload...)
		p := filepath.Join(t.TempDir(), "kind.obs")
		if err := os.WriteFile(p, frame, 0o644); err != nil {
			t.Fatal(err)
		}
		if recs, err := ReadFile(p); err == nil {
			t.Errorf("kind %d: ReadFile accepted %d records", kind, len(recs))
		}
		payload[0] = byte(KindQueue) // the same frame with a real kind reads back
		binary.LittleEndian.PutUint32(frame[8:], crc32.ChecksumIEEE(payload))
		copy(frame[12:], payload)
		if err := os.WriteFile(p, frame, 0o644); err != nil {
			t.Fatal(err)
		}
		if recs, err := ReadFile(p); err != nil || len(recs) != 1 || recs[0].Kind != KindQueue {
			t.Errorf("kind %d control: ReadFile = %v, %v", KindQueue, recs, err)
		}
	}
}

// errSink fails every Append.
type errSink struct{ err error }

func (e errSink) Append([]Record) error { return e.err }

// TestCollectorBatchingAndStickyError pins the collector contract:
// records buffer until the batch fills, Flush drains the remainder,
// and a sink error is sticky — recording stops and Flush reports it.
func TestCollectorBatchingAndStickyError(t *testing.T) {
	mem := NewMemorySink()
	c := NewCollector(mem, 8)
	for i := 0; i < 20; i++ {
		c.Func(hookCtxForTest(i))
	}
	if got := mem.Len(); got != 16 {
		t.Errorf("before Flush: sink has %d records, want the two full batches (16)", got)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := mem.Len(); got != 20 {
		t.Errorf("after Flush: sink has %d records, want 20", got)
	}
	for i, r := range mem.Records() {
		if r.Msg != int64(i) {
			t.Fatalf("record %d carries Msg %d: batching reordered the stream", i, r.Msg)
		}
	}

	boom := errors.New("disk full")
	cf := NewCollector(errSink{boom}, 4)
	for i := 0; i < 40; i++ {
		cf.Func(hookCtxForTest(i))
	}
	if err := cf.Flush(); !errors.Is(err, boom) {
		t.Errorf("Flush() = %v, want the sink error", err)
	}
	if len(cf.batch) != 0 && cf.err == nil {
		t.Error("collector kept recording after a sink error")
	}
}

// TestSinksConcurrentAppend pins the sink side of the Parallelism(k)
// contract: many collectors appending to one shared sink race-free
// (run under -race) and without losing records.
func TestSinksConcurrentAppend(t *testing.T) {
	const workers, per = 8, 500
	mem := NewMemorySink()
	path := filepath.Join(t.TempDir(), "conc.obs")
	fs, err := CreateFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := Tee(mem, fs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewCollector(sink, 64)
			for i := 0; i < per; i++ {
				c.Func(hookCtxForTest(w*per + i))
			}
			if err := c.Flush(); err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if got := mem.Len(); got != workers*per {
		t.Errorf("memory sink has %d records, want %d", got, workers*per)
	}
	onDisk, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != workers*per {
		t.Errorf("file sink has %d records, want %d", len(onDisk), workers*per)
	}
}
