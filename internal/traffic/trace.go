package traffic

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"quarc/internal/routing"
	"quarc/internal/topology"
)

// A Trace is a captured workload: per-node interarrival gaps and message
// records, in draw order. Replaying a trace against the same routed
// topology reproduces the original run bitwise — the simulator is
// deterministic given its traffic source, and the trace IS the traffic
// source's complete output. Gaps are stored with full float64 precision
// for exactly this reason (absolute times are sums of gaps, and storing
// the sums would lose the bitwise guarantee on subtraction).
//
// A trace has one encoding, a compact binary format (magic "QWTR"):
// WriteBinary writes it and ReadTrace reads it.
type Trace struct {
	// N is the node count of the network the trace was captured on.
	N int
	// Topo fingerprints the routed topology the trace was captured on:
	// an FNV-1a hash of the graph's name and full channel structure
	// (TopologyFingerprint). Replay refuses a mismatch, so a quarc-16
	// trace cannot silently replay on a same-size mesh even when the
	// channel counts coincide. Zero (e.g. a hand-written trace) skips
	// the check.
	Topo uint64
	// SetBits fingerprints the multicast destination set the trace's
	// multicasts were routed with (the set's raw bit words). Replay of a
	// trace containing multicasts refuses a different set. Nil skips the
	// check.
	SetBits []uint64
	// MsgLen records the message length (in flits) of the run the trace
	// was captured from. Gaps and destinations replay under any message
	// length, but only the recorded one reproduces the original results,
	// so replay refuses a mismatch. Zero skips the check.
	MsgLen int
	// Gaps[node] lists the node's interarrival gaps in draw order.
	Gaps [][]float64
	// Msgs[node] lists the node's generated messages in draw order.
	Msgs [][]TraceMsg
}

// TraceMsg is one recorded message generation.
type TraceMsg struct {
	// Multicast marks a multicast to the workload's destination set.
	Multicast bool
	// Dst is the unicast destination (ignored for multicasts).
	Dst topology.NodeID
	// Time is the absolute injection time stamped by the simulator's
	// injection hook — metadata for inspection; replay derives times from
	// the gaps. NaN when the message was drawn but never injected (e.g.
	// the run's horizon hit first).
	Time float64
}

// Messages returns the total number of recorded messages.
func (t *Trace) Messages() int {
	total := 0
	for _, m := range t.Msgs {
		total += len(m)
	}
	return total
}

// multicasts reports whether any recorded message is a multicast.
func (t *Trace) multicasts() bool {
	for _, ms := range t.Msgs {
		for _, m := range ms {
			if m.Multicast {
				return true
			}
		}
	}
	return false
}

// maxTraceNodes bounds the node count the decoder will believe: the
// largest network a scenario Spec describes. The header claims the
// count before any per-node stream is read, so it alone could claim
// any number; the bound keeps the per-node stream table the decoder
// sizes from it under 200 KB. Everything else the decoder holds grows
// with its input.
const maxTraceNodes = 4096

// validate checks structural invariants after decoding.
func (t *Trace) validate() error {
	if t.N <= 0 || t.N > maxTraceNodes {
		return fmt.Errorf("traffic: trace node count %d out of range", t.N)
	}
	if len(t.Gaps) != t.N || len(t.Msgs) != t.N {
		return fmt.Errorf("traffic: trace streams (%d gaps, %d msgs) do not match %d nodes",
			len(t.Gaps), len(t.Msgs), t.N)
	}
	for node, gaps := range t.Gaps {
		for _, g := range gaps {
			if g < 0 || math.IsNaN(g) || math.IsInf(g, 0) {
				return fmt.Errorf("traffic: trace node %d has invalid gap %v", node, g)
			}
		}
	}
	for node, msgs := range t.Msgs {
		for _, m := range msgs {
			if !m.Multicast && (m.Dst < 0 || int(m.Dst) >= t.N || int(m.Dst) == node) {
				return fmt.Errorf("traffic: trace node %d has invalid destination %d", node, m.Dst)
			}
			// NaN marks an unstamped message; an infinite stamp is no
			// injection time.
			if math.IsInf(m.Time, 0) {
				return fmt.Errorf("traffic: trace node %d has invalid time stamp %v", node, m.Time)
			}
		}
	}
	return nil
}

// Recorder wraps a traffic source and captures everything it emits, so a
// live run can be replayed later. It implements the simulator's Traffic
// interface (pass the recorder where the workload would go) and its
// injection-hook Observer extension, which stamps absolute injection
// times onto the recorded messages.
type Recorder struct {
	src *Workload
	tr  Trace
}

// NewRecorder wraps src, recording for an n-node network.
func NewRecorder(src *Workload) *Recorder {
	return &Recorder{
		src: src,
		tr: Trace{
			N:       src.n,
			Topo:    TopologyFingerprint(src.routes.Graph()),
			SetBits: slices.Clone(src.spec.Set.Bits),
			Gaps:    make([][]float64, src.n),
			Msgs:    make([][]TraceMsg, src.n),
		},
	}
}

// Trace returns the captured trace (grows until the recorder stops being
// driven; safe to read once the run is over).
func (r *Recorder) Trace() *Trace { return &r.tr }

// Interarrival implements the simulator's Traffic interface.
func (r *Recorder) Interarrival(node topology.NodeID) float64 {
	g := r.src.Interarrival(node)
	if !math.IsInf(g, 1) {
		r.tr.Gaps[node] = append(r.tr.Gaps[node], g)
	}
	return g
}

// Next implements the simulator's Traffic interface.
func (r *Recorder) Next(node topology.NodeID) ([]routing.Branch, bool) {
	br, mc := r.src.Next(node)
	if len(br) > 0 {
		m := TraceMsg{Multicast: mc, Time: math.NaN()}
		if !mc {
			targets := br[0].Targets
			m.Dst = targets[len(targets)-1]
		}
		r.tr.Msgs[node] = append(r.tr.Msgs[node], m)
	}
	return br, mc
}

// Injected implements the simulator's injection hook: it stamps the
// absolute injection time onto the message most recently drawn at node.
func (r *Recorder) Injected(node topology.NodeID, t float64, multicast bool) {
	if ms := r.tr.Msgs[node]; len(ms) > 0 {
		ms[len(ms)-1].Time = t
	}
}

// Replayer feeds a captured trace back into the simulator. It implements
// the Traffic interface: gaps and destinations come from the trace while
// routes come from the router's route table, so a replayed run is
// bitwise-identical to the recorded one on the same routed topology.
// When the trace runs dry a node simply stops generating (an infinite
// gap), so replays of truncated traces terminate cleanly.
type Replayer struct {
	tr     *Trace
	routes *routing.Table
	gi     []int // per-node gap cursors
	mi     []int // per-node message cursors
}

// NewReplayer builds a replayer of tr over the routed topology. The set
// is only consulted when the trace contains multicasts (it must then be
// the set the trace was recorded under for the routes to match).
func NewReplayer(router routing.Router, set routing.MulticastSet, tr *Trace) (*Replayer, error) {
	if err := tr.validate(); err != nil {
		return nil, err
	}
	n := router.Graph().Nodes()
	if tr.N != n {
		return nil, fmt.Errorf("traffic: trace over %d nodes replayed on a %d-node network", tr.N, n)
	}
	if fp := TopologyFingerprint(router.Graph()); tr.Topo != 0 && tr.Topo != fp {
		return nil, fmt.Errorf("traffic: trace was captured on a different topology (fingerprint %#x, replaying on %#x)", tr.Topo, fp)
	}
	mcSet := routing.MulticastSet{}
	if tr.multicasts() {
		if set.Empty() {
			return nil, fmt.Errorf("traffic: trace contains multicasts but no destination set was given")
		}
		if tr.SetBits != nil && !set.Equal(routing.MulticastSet{Bits: tr.SetBits}) {
			return nil, fmt.Errorf("traffic: trace multicasts were recorded under a different destination set")
		}
		mcSet = set
	}
	routes, err := routeTable(router, mcSet)
	if err != nil {
		return nil, err
	}
	return &Replayer{tr: tr, routes: routes, gi: make([]int, n), mi: make([]int, n)}, nil
}

// Interarrival implements the simulator's Traffic interface.
func (p *Replayer) Interarrival(node topology.NodeID) float64 {
	gaps := p.tr.Gaps[node]
	i := p.gi[node]
	if i >= len(gaps) {
		return math.Inf(1)
	}
	p.gi[node] = i + 1
	return gaps[i]
}

// Next implements the simulator's Traffic interface.
func (p *Replayer) Next(node topology.NodeID) ([]routing.Branch, bool) {
	msgs := p.tr.Msgs[node]
	i := p.mi[node]
	if i >= len(msgs) {
		return nil, false
	}
	p.mi[node] = i + 1
	m := msgs[i]
	if m.Multicast {
		return p.routes.Multicast(node), true
	}
	return p.routes.Unicast(node, m.Dst), false
}

// TopologyFingerprint hashes a routed topology's identity — its name,
// node count and complete channel structure — with FNV-1a. Traces carry
// it so replay fails loudly on any topology other than the one the
// trace was recorded on, rather than re-deriving plausible-but-wrong
// routes.
func TopologyFingerprint(g *topology.Graph) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= v >> s & 0xff
			h *= prime64
		}
	}
	for _, b := range []byte(g.Name()) {
		h ^= uint64(b)
		h *= prime64
	}
	mix(uint64(g.Nodes()))
	for _, c := range g.Channels() {
		mix(uint64(c.Kind))
		mix(uint64(c.Src))
		mix(uint64(c.Dst))
		mix(uint64(c.Class))
		mix(uint64(c.VC))
	}
	return h
}

// Binary trace format: the magic "QWTR" and a version byte, the node
// count, then per node its gap stream and message stream. Gaps carry
// their exact float64 bits; message flags pack the multicast bit and
// whether an injection time stamp follows. Integers are uvarints.
var traceMagic = [5]byte{'Q', 'W', 'T', 'R', 1}

// WriteBinary encodes the trace in the compact binary format.
func (t *Trace) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.Write(traceMagic[:])
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) {
		bw.Write(buf[:binary.PutUvarint(buf[:], v)])
	}
	writeWord := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:8], v)
		bw.Write(buf[:8])
	}
	writeFloat := func(f float64) { writeWord(math.Float64bits(f)) }
	writeUvarint(uint64(t.N))
	writeWord(t.Topo)
	writeUvarint(uint64(t.MsgLen))
	writeUvarint(uint64(len(t.SetBits)))
	for _, w := range t.SetBits {
		writeWord(w)
	}
	for node := 0; node < t.N; node++ {
		writeUvarint(uint64(len(t.Gaps[node])))
		for _, g := range t.Gaps[node] {
			writeFloat(g)
		}
		writeUvarint(uint64(len(t.Msgs[node])))
		for _, m := range t.Msgs[node] {
			flags := byte(0)
			if m.Multicast {
				flags |= 1
			}
			stamped := !math.IsNaN(m.Time)
			if stamped {
				flags |= 2
			}
			bw.WriteByte(flags)
			if !m.Multicast {
				writeUvarint(uint64(m.Dst))
			}
			if stamped {
				writeFloat(m.Time)
			}
		}
	}
	return bw.Flush()
}

// readBinaryTrace decodes the binary format after the magic has been
// consumed and checked.
func readBinaryTrace(br *bufio.Reader) (*Trace, error) {
	readUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }
	readWord := func() (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	readFloat := func() (float64, error) {
		w, err := readWord()
		return math.Float64frombits(w), err
	}
	n, err := readUvarint()
	if err != nil {
		return nil, fmt.Errorf("traffic: trace node count: %w", err)
	}
	if n == 0 || n > maxTraceNodes {
		return nil, fmt.Errorf("traffic: trace node count %d out of range", n)
	}
	topo, err := readWord()
	if err != nil {
		return nil, fmt.Errorf("traffic: trace topology fingerprint: %w", err)
	}
	msgLen, err := readUvarint()
	if err != nil {
		return nil, fmt.Errorf("traffic: trace message length: %w", err)
	}
	if msgLen > 1<<30 {
		return nil, fmt.Errorf("traffic: trace message length %d out of range", msgLen)
	}
	nw, err := readUvarint()
	if err != nil {
		return nil, fmt.Errorf("traffic: trace set fingerprint: %w", err)
	}
	if nw > maxTraceNodes {
		return nil, fmt.Errorf("traffic: trace set fingerprint of %d words out of range", nw)
	}
	var setBits []uint64
	for i := uint64(0); i < nw; i++ {
		w, err := readWord()
		if err != nil {
			return nil, fmt.Errorf("traffic: trace set fingerprint word %d: %w", i, err)
		}
		setBits = append(setBits, w)
	}
	t := &Trace{N: int(n), Topo: topo, SetBits: setBits, MsgLen: int(msgLen),
		Gaps: make([][]float64, n), Msgs: make([][]TraceMsg, n)}
	for node := 0; node < t.N; node++ {
		ng, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("traffic: trace node %d gap count: %w", node, err)
		}
		var gaps []float64
		for i := uint64(0); i < ng; i++ {
			g, err := readFloat()
			if err != nil {
				return nil, fmt.Errorf("traffic: trace node %d gap %d: %w", node, i, err)
			}
			gaps = append(gaps, g)
		}
		t.Gaps[node] = gaps
		nm, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("traffic: trace node %d message count: %w", node, err)
		}
		var msgs []TraceMsg
		for i := uint64(0); i < nm; i++ {
			flags, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("traffic: trace node %d message %d: %w", node, i, err)
			}
			m := TraceMsg{Multicast: flags&1 != 0, Time: math.NaN()}
			if !m.Multicast {
				d, err := readUvarint()
				if err != nil {
					return nil, fmt.Errorf("traffic: trace node %d message %d destination: %w", node, i, err)
				}
				// Bound before the narrowing cast: a corrupted uvarint
				// must not alias to a valid node and slip past validate.
				if d >= n {
					return nil, fmt.Errorf("traffic: trace node %d message %d destination %d out of range", node, i, d)
				}
				m.Dst = topology.NodeID(d)
			}
			if flags&2 != 0 {
				if m.Time, err = readFloat(); err != nil {
					return nil, fmt.Errorf("traffic: trace node %d message %d time: %w", node, i, err)
				}
			}
			msgs = append(msgs, m)
		}
		t.Msgs[node] = msgs
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadTrace decodes a trace in the binary format; any input that does
// not open with its "QWTR" header is an error.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var head [len(traceMagic)]byte
	if _, err := io.ReadFull(br, head[:]); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, fmt.Errorf("traffic: trace header: %w", err)
	}
	if head != traceMagic {
		return nil, fmt.Errorf("traffic: not a trace: no %q v%d header", traceMagic[:4], traceMagic[4])
	}
	return readBinaryTrace(br)
}
