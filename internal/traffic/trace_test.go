package traffic

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"quarc/internal/routing"
	"quarc/internal/topology"
)

// driveRecorder runs a recorder through an interleaved call pattern like
// the simulator's (gap draw, later the matching message draw, across
// nodes) and returns the captured trace.
func driveRecorder(t testing.TB, spec Spec, draws int) *Trace {
	t.Helper()
	rt := quarcRouter(t, 16)
	w, err := NewWorkload(rt, spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(w)
	for i := 0; i < draws; i++ {
		for node := topology.NodeID(0); node < 16; node++ {
			if math.IsInf(rec.Interarrival(node), 1) {
				continue
			}
			rec.Next(node)
			if i%3 == 0 {
				rec.Injected(node, float64(i), false)
			}
		}
	}
	return rec.Trace()
}

// traceEqual compares traces structurally, treating NaN time stamps as
// equal (reflect.DeepEqual would reject NaN == NaN).
func traceEqual(a, b *Trace) bool {
	if a.N != b.N || a.Topo != b.Topo || a.MsgLen != b.MsgLen ||
		!reflect.DeepEqual(a.SetBits, b.SetBits) || !reflect.DeepEqual(a.Gaps, b.Gaps) {
		return false
	}
	if len(a.Msgs) != len(b.Msgs) {
		return false
	}
	for node := range a.Msgs {
		if len(a.Msgs[node]) != len(b.Msgs[node]) {
			return false
		}
		for i, ma := range a.Msgs[node] {
			mb := b.Msgs[node][i]
			if ma.Multicast != mb.Multicast || ma.Dst != mb.Dst {
				return false
			}
			if ma.Time != mb.Time && !(math.IsNaN(ma.Time) && math.IsNaN(mb.Time)) {
				return false
			}
		}
	}
	return true
}

// TestTraceCodecRoundTrip pins both encodings: a trace survives a
// binary and a JSONL round trip bit-for-bit (gaps carry exact float64
// values in both).
func TestTraceCodecRoundTrip(t *testing.T) {
	set, err := quarcRouter(t, 16).LocalizedSet(topology.PortL, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := driveRecorder(t, Spec{Rate: 0.01, MulticastFrac: 0.3, Set: set}, 40)
	if tr.Messages() == 0 {
		t.Fatal("recorder captured nothing")
	}

	var bin bytes.Buffer
	if err := tr.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadTrace(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if !traceEqual(tr, fromBin) {
		t.Fatal("binary round trip changed the trace")
	}

	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	fromJSONL, err := ReadTrace(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if !traceEqual(tr, fromJSONL) {
		t.Fatal("JSONL round trip changed the trace")
	}
}

// TestTraceDecodeRejectsGarbage checks the decoder's fail-fast paths.
func TestTraceDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"truncated magic":  {'Q', 'W'},
		"bad magic":        []byte("QWTZ1234"),
		"not jsonl":        []byte("hello world\n"),
		"wrong jsonl head": []byte(`{"format":"other","nodes":4}` + "\n"),
		"truncated binary": append([]byte{'Q', 'W', 'T', 'R', 1}, 16), // node count, then EOF mid-stream
	}
	for name, data := range cases {
		if _, err := ReadTrace(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: garbage accepted", name)
		}
	}
	// A bad destination must fail validation on decode.
	bad := &Trace{N: 4,
		Gaps: [][]float64{{1}, {}, {}, {}},
		Msgs: [][]TraceMsg{{{Dst: 9, Time: math.NaN()}}, {}, {}, {}}}
	var buf bytes.Buffer
	if err := bad.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); err == nil {
		t.Error("out-of-range destination accepted on decode")
	}
}

// TestReplayerReproducesRecording pins the core replay property at the
// traffic level: a replayer hands back exactly the gaps and routes the
// recorded workload drew, then falls silent.
func TestReplayerReproducesRecording(t *testing.T) {
	rt := quarcRouter(t, 16)
	set, err := rt.LocalizedSet(topology.PortR, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Rate: 0.01, MulticastFrac: 0.25, Set: set}
	w, err := NewWorkload(rt, spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(w)
	type draw struct {
		gap  float64
		mc   bool
		port int
		dst  topology.NodeID
	}
	var want []draw
	const rounds = 200
	for i := 0; i < rounds; i++ {
		for node := topology.NodeID(0); node < 16; node++ {
			g := rec.Interarrival(node)
			br, mc := rec.Next(node)
			d := draw{gap: g, mc: mc, port: br[0].Port}
			if !mc {
				d.dst = br[0].Targets[len(br[0].Targets)-1]
			}
			want = append(want, d)
		}
	}

	// Two replayers over the one trace: replaying does not consume it.
	for pass := 0; pass < 2; pass++ {
		rp, err := NewReplayer(rt, set, rec.Trace())
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for round := 0; round < rounds; round++ {
			for node := topology.NodeID(0); node < 16; node++ {
				g := rp.Interarrival(node)
				br, mc := rp.Next(node)
				d := want[i]
				i++
				if g != d.gap || mc != d.mc || br[0].Port != d.port {
					t.Fatalf("pass %d draw %d: replay (%v, %v, port %d) != recorded (%v, %v, port %d)",
						pass, i, g, mc, br[0].Port, d.gap, d.mc, d.port)
				}
				if !mc && br[0].Targets[len(br[0].Targets)-1] != d.dst {
					t.Fatalf("pass %d draw %d: replay dst %d != recorded %d",
						pass, i, br[0].Targets[len(br[0].Targets)-1], d.dst)
				}
			}
		}
		// Exhausted: the replayer must fall silent.
		if !math.IsInf(rp.Interarrival(0), 1) {
			t.Fatal("exhausted replayer still yields gaps")
		}
		if br, _ := rp.Next(0); br != nil {
			t.Fatal("exhausted replayer still yields messages")
		}
	}
}

// TestReplayerRejectsMismatch checks replay fail-fast: node-count
// mismatches and multicast traces without a destination set are errors.
func TestReplayerRejectsMismatch(t *testing.T) {
	rt := quarcRouter(t, 16)
	tr := &Trace{N: 8,
		Gaps: make([][]float64, 8),
		Msgs: make([][]TraceMsg, 8)}
	if _, err := NewReplayer(rt, quarcRouter(t, 16).BroadcastSet(), tr); err == nil {
		t.Error("8-node trace accepted on a 16-node network")
	}
	mcTrace := &Trace{N: 16,
		Gaps: make([][]float64, 16),
		Msgs: make([][]TraceMsg, 16)}
	mcTrace.Msgs[0] = []TraceMsg{{Multicast: true, Time: math.NaN()}}
	if _, err := NewReplayer(rt, routing.MulticastSet{}, mcTrace); err == nil {
		t.Error("multicast trace accepted without a destination set")
	}
}

// TestReplayerRejectsWrongTopologyAndSet pins the fingerprint checks: a
// trace records the channel count and the multicast set it was captured
// under, and replay on a same-size but different topology — or under a
// different set — fails loudly instead of producing plausible numbers.
func TestReplayerRejectsWrongTopologyAndSet(t *testing.T) {
	rt := quarcRouter(t, 16)
	setA, err := rt.LocalizedSet(topology.PortL, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload(rt, Spec{Rate: 0.01, MulticastFrac: 0.5, Set: setA}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(w)
	for i := 0; i < 20; i++ {
		rec.Interarrival(0)
		rec.Next(0)
	}
	tr := rec.Trace()
	if tr.Topo == 0 || tr.SetBits == nil {
		t.Fatalf("recorder did not fingerprint the run: %+v", tr)
	}
	// Same node count, different topology: the spidergon has a different
	// channel count.
	sp, err := topology.NewSpidergon(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReplayer(routing.NewSpidergonRouter(sp), setA, tr); err == nil {
		t.Error("quarc trace accepted on a 16-node spidergon")
	}
	// Same topology, different multicast set.
	setB := rt.BroadcastSet()
	if _, err := NewReplayer(rt, setB, tr); err == nil {
		t.Error("trace accepted under a different multicast set")
	}
	if _, err := NewReplayer(rt, setA, tr); err != nil {
		t.Errorf("matching replay rejected: %v", err)
	}
}

// The hostile trace headers: each claims 2^20 nodes and carries none of
// them.
var (
	// The binary magic, a uvarint node count of 2^20, a zero topology
	// fingerprint, message length and set-word count: 18 bytes.
	hostileBinaryTrace = []byte("QWTR\x01\x80\x80\x40\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00")
	hostileJSONLTrace  = []byte(`{"format":"quarc-trace","nodes":1048576}` + "\n")
)

// allocatedBy reports the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadTraceAllocatesByInput pins the decoders against headers that
// claim more than the input holds: neither encoding sizes anything from
// a node count past maxTraceNodes, and both refuse it.
func TestReadTraceAllocatesByInput(t *testing.T) {
	for name, data := range map[string][]byte{"binary": hostileBinaryTrace, "jsonl": hostileJSONLTrace} {
		var err error
		if got := allocatedBy(func() { _, err = ReadTrace(bytes.NewReader(data)) }); got >= 1<<20 {
			t.Errorf("%s: a %d-byte header allocated %d bytes, want < 1 MiB", name, len(data), got)
		}
		if err == nil {
			t.Errorf("%s: a trace of 2^20 nodes accepted", name)
		}
	}
}

// FuzzReadTrace drives ReadTrace with arbitrary bytes: it must never
// panic, must allocate within a fixed multiple of its input plus a
// constant, and whatever it accepts must read back to the same trace
// from either encoding (compared through the bit-exact binary form).
func FuzzReadTrace(f *testing.F) {
	f.Add(hostileBinaryTrace)
	f.Add(hostileJSONLTrace)
	f.Add([]byte("QOB1\x00\x00\x10\x00\x00\x00\x00\x00"))
	set, err := quarcRouter(f, 16).LocalizedSet(topology.PortL, 3)
	if err != nil {
		f.Fatal(err)
	}
	recorded := driveRecorder(f, Spec{Rate: 0.01, MulticastFrac: 0.3, Set: set}, 20)
	for _, write := range []func(*Trace, io.Writer) error{(*Trace).WriteBinary, (*Trace).WriteJSONL} {
		var buf bytes.Buffer
		if err := write(recorded, &buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr *Trace
		var err error
		if got, limit := allocatedBy(func() { tr, err = ReadTrace(bytes.NewReader(data)) }), 128*uint64(len(data))+1<<20; got > limit {
			t.Fatalf("a %d-byte input allocated %d bytes, over %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		var bin bytes.Buffer
		if err := tr.WriteBinary(&bin); err != nil {
			t.Fatal(err)
		}
		for _, write := range []func(*Trace, io.Writer) error{(*Trace).WriteBinary, (*Trace).WriteJSONL} {
			var buf bytes.Buffer
			if err := write(tr, &buf); err != nil {
				t.Fatalf("an accepted trace does not re-encode: %v", err)
			}
			back, err := ReadTrace(&buf)
			if err != nil {
				t.Fatalf("a re-encoded trace does not read back: %v", err)
			}
			var again bytes.Buffer
			if err := back.WriteBinary(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), bin.Bytes()) {
				t.Fatal("a re-encoded trace reads back to a different trace")
			}
		}
	})
}
