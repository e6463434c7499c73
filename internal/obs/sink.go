package obs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
)

// MemorySink accumulates records in memory. Safe for concurrent
// Append; Records snapshots are safe to read after the producing
// collectors have flushed.
type MemorySink struct {
	mu   sync.Mutex
	recs []Record
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Append implements Sink.
func (m *MemorySink) Append(batch []Record) error {
	m.mu.Lock()
	m.recs = append(m.recs, batch...)
	m.mu.Unlock()
	return nil
}

// Records returns the accumulated records (the live slice: do not
// append concurrently with reading it).
func (m *MemorySink) Records() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recs
}

// Len returns the number of accumulated records.
func (m *MemorySink) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.recs)
}

// Tee fans batches out to every sink, stopping at the first error.
func Tee(sinks ...Sink) Sink { return teeSink(sinks) }

type teeSink []Sink

// Append implements Sink.
func (t teeSink) Append(batch []Record) error {
	for _, s := range t {
		if err := s.Append(batch); err != nil {
			return err
		}
	}
	return nil
}

// The flat-file sink's WAL-style format: a stream of self-delimiting
// frames, one per Append, each carrying a magic, a record count, the
// fixed-width record payload and a CRC-32 (IEEE) of that payload.
// Appends are atomic at frame granularity — a torn tail frame (crash
// mid-write) fails its CRC and reading stops cleanly at the last
// complete frame, exactly like write-ahead-log recovery.
const (
	frameMagic = "QOB1"
	recordSize = 38 // 1+1+4+4+4+8+8+8 bytes, little-endian
	// maxFrameRecords bounds a frame a reader will believe, so a
	// corrupted count cannot drive a huge allocation.
	maxFrameRecords = 1 << 20
)

func encodeRecord(b []byte, r *Record) {
	b[0] = byte(r.Kind)
	b[1] = 0
	if r.Multicast {
		b[1] = 1
	}
	binary.LittleEndian.PutUint32(b[2:], uint32(r.Node))
	binary.LittleEndian.PutUint32(b[6:], uint32(r.Channel))
	binary.LittleEndian.PutUint32(b[10:], uint32(r.Occupancy))
	binary.LittleEndian.PutUint64(b[14:], uint64(r.Msg))
	binary.LittleEndian.PutUint64(b[22:], math.Float64bits(r.Time))
	binary.LittleEndian.PutUint64(b[30:], math.Float64bits(r.Latency))
}

func decodeRecord(b []byte) Record {
	return Record{
		Kind:      Kind(b[0]),
		Multicast: b[1] != 0,
		Node:      int32(binary.LittleEndian.Uint32(b[2:])),
		Channel:   int32(binary.LittleEndian.Uint32(b[6:])),
		Occupancy: int32(binary.LittleEndian.Uint32(b[10:])),
		Msg:       int64(binary.LittleEndian.Uint64(b[14:])),
		Time:      math.Float64frombits(binary.LittleEndian.Uint64(b[22:])),
		Latency:   math.Float64frombits(binary.LittleEndian.Uint64(b[30:])),
	}
}

// FileSink appends record frames to a flat file in the WAL-style
// format above. Safe for concurrent Append (frames from different
// collectors interleave at frame granularity); Close flushes and
// closes the file.
type FileSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	f   *os.File
	buf []byte
}

// CreateFileSink creates (truncating) the file at path.
func CreateFileSink(path string) (*FileSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &FileSink{w: bufio.NewWriter(f), f: f}, nil
}

// Append implements Sink: one frame per call.
func (s *FileSink) Append(batch []Record) error {
	if len(batch) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	need := len(batch) * recordSize
	if cap(s.buf) < need {
		s.buf = make([]byte, need)
	}
	payload := s.buf[:need]
	for i := range batch {
		encodeRecord(payload[i*recordSize:], &batch[i])
	}
	var head [12]byte
	copy(head[:4], frameMagic)
	binary.LittleEndian.PutUint32(head[4:], uint32(len(batch)))
	binary.LittleEndian.PutUint32(head[8:], crc32.ChecksumIEEE(payload))
	if _, err := s.w.Write(head[:]); err != nil {
		return err
	}
	_, err := s.w.Write(payload)
	return err
}

// Close flushes buffered frames and closes the file.
func (s *FileSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.w.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile decodes a FileSink file. A torn tail frame (short read or
// CRC mismatch at the end of the file) is tolerated — the records of
// the complete frames before it are returned, as in WAL recovery — but
// corruption before the tail is an error, and so is a record whose kind
// names no hook position.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var recs []Record
	for {
		var head [12]byte
		if _, err := io.ReadFull(br, head[:]); err == io.EOF {
			return recs, nil
		} else if err != nil {
			return recs, nil // torn tail header
		}
		if string(head[:4]) != frameMagic {
			return nil, fmt.Errorf("obs: %s: bad frame magic at record %d", path, len(recs))
		}
		n := binary.LittleEndian.Uint32(head[4:])
		if n == 0 || n > maxFrameRecords {
			return nil, fmt.Errorf("obs: %s: frame record count %d out of range", path, n)
		}
		payload := make([]byte, int(n)*recordSize)
		if _, err := io.ReadFull(br, payload); err != nil {
			return recs, nil // torn tail payload
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(head[8:]) {
			// A checksum failure at the very end is a torn tail; anywhere
			// else the file is corrupt.
			if _, err := br.Peek(1); err == io.EOF {
				return recs, nil
			}
			return nil, fmt.Errorf("obs: %s: frame checksum mismatch at record %d", path, len(recs))
		}
		for i := 0; i < int(n); i++ {
			r := decodeRecord(payload[i*recordSize:])
			// The file comes from outside the program: a kind no hook
			// position produces would decode and then vanish in Aggregate.
			if r.Kind > KindQueue {
				return nil, fmt.Errorf("obs: %s: unknown record kind %d at record %d", path, r.Kind, len(recs))
			}
			recs = append(recs, r)
		}
	}
}
