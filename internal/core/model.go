// Package core implements the paper's analytical performance model for
// unicast and multicast communication in wormhole-routed networks with
// asynchronous multi-port routers (Moadeli & Vanderbauwhede, IPDPS 2009).
//
// The model views the network as a network of M/G/1 queues (one per
// channel), propagates wormhole blocking from the destination back to the
// source through a service-time recurrence (Eq. 6), sums per-link header
// waiting times along each path (Eq. 7), and combines the per-port waits of
// a multicast with the expected maximum of independent exponential random
// variables (Eqs. 8-13).
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
)

// ErrNonPoisson marks model evaluations rejected because the workload's
// arrival process breaks the M/G/1 Poisson assumption — an out-of-scope
// workload, not a defect. Callers that fall back to simulator-only
// output match it with errors.Is.
var ErrNonPoisson = errors.New("the analytical model requires poisson arrivals")

// Input specifies one model evaluation: a routed topology, a workload
// specification and the message length in flits.
type Input struct {
	Router routing.Router
	Spec   traffic.Spec
	MsgLen int
	// Damping is the fixed-point damping factor in (0,1]; 0 selects the
	// default 0.5.
	Damping float64
	// MaxIter bounds the fixed-point iterations; 0 selects the default.
	MaxIter int
	// Tol is the convergence tolerance on service times; 0 selects the
	// default 1e-9.
	Tol float64
	// WaitFormula selects the M/G/1 waiting-time formula; the default is
	// the standard Pollaczek-Khinchine form (see DESIGN.md §2).
	WaitFormula WaitFormula
	// ServiceFormula selects the service-time recurrence; the default is
	// the paper's Eq. 6.
	ServiceFormula ServiceFormula
}

// ServiceFormula selects the channel service-time recurrence.
type ServiceFormula int

const (
	// PaperEq6 is the paper's recurrence, x_i = Σ P(W' + x_j + 1): a
	// channel's holding time includes one cycle per downstream hop. This
	// overestimates the physical holding time (a wormhole channel is
	// released when the tail crosses it, so the per-hop cycles cancel),
	// which makes the model conservative: it saturates slightly before
	// the simulator. It is the default because it is what the paper
	// publishes, and its figures show exactly this conservatism.
	PaperEq6 ServiceFormula = iota
	// TailRelease drops the per-hop +1: x_i = Σ P(W' + x_j) with x = msg
	// at the ejection channel, which telescopes to msg + downstream
	// waits — the exact mean holding time when messages are longer than
	// the remaining path. An ablation (BenchmarkAblationService) compares
	// the two against the simulator.
	TailRelease
)

// WaitFormula selects how channel waiting times are computed.
type WaitFormula int

const (
	// PKStandard is the standard Pollaczek-Khinchine mean wait,
	// W = λ·E[x²]/(2(1-ρ)) — the form the paper's cited source gives and
	// the one that reproduces the simulator. This is the default.
	PKStandard WaitFormula = iota
	// PaperEq3Literal evaluates Eq. 3 exactly as printed in the paper
	// (numerator λρ instead of λx̄²). It exists to demonstrate that the
	// printed formula cannot reproduce the paper's own figures: it
	// underestimates waits by a factor of about x̄/λ.
	PaperEq3Literal
)

// Prediction is the model output for one configuration.
type Prediction struct {
	// UnicastLatency is the average unicast message latency (Eq. 7
	// averaged over all source/destination pairs), in cycles.
	UnicastLatency float64
	// MulticastLatency is the average multicast message latency
	// (Eqs. 13-16), in cycles.
	MulticastLatency float64
	// Saturated reports that some channel's utilization reached 1, i.e.
	// the configuration is beyond the model's stability region; the
	// latencies are +Inf in that case.
	Saturated bool
	// MaxRho is the largest channel utilization λ·x̄ at the fixed point.
	MaxRho float64
	// Iterations is the number of fixed-point sweeps performed.
	Iterations int
	// Converged reports whether the service-time fixed point met the
	// tolerance within MaxIter sweeps.
	Converged bool
}

// channelState carries the per-channel quantities of the model at the
// latest solve.
type channelState struct {
	lambda  float64 // total arrival rate (messages/cycle)
	service float64 // mean holding time x̄
	wait    float64 // M/G/1 mean wait W
	// trans[trLo:trHi] are the channel's outgoing transitions.
	trLo, trHi int32
}

// transition is the flow from one channel into the next one, `to`. The
// rate and the two quotients Eq. 6 takes of it are reloaded per solve.
type transition struct {
	to   topology.ChannelID
	rate float64 // flow rate from->to
	p    float64 // rate / λ(from): the share of from's traffic turning here
	// scale is 1 - rate/λ(to) clamped at 0: the share of to's wait the
	// flow does not inflict on itself (the "exclude own contribution"
	// factor of Eq. 6 and of the path waits).
	scale float64
}

// noTurn is the turn rank of a hop entered over no transition: the
// injection channel, and turns no traffic-carrying flow takes (unicast
// routes at α = 1 carry no traffic; they are kept for Eq. 7 only).
const noTurn = 0xff

// flow is one route: the route table's own path and, for unicast pairs,
// the probability p that a unicast of its source takes it. Unless
// turns[turn+i] is noTurn, hop i entered its channel over transition
// trans[channels[path[i-1]].trLo+turns[turn+i]]: the byte is the turn's
// rank in the previous channel's sorted run.
type flow struct {
	path routing.Path
	p    float64
	turn int
}

// Model is the assembled analytical model of one configuration: every
// route the workload uses, enumerated once, so that each generation rate
// is only a reload of the flow rates and a fixed-point solve. Build with
// NewModel, evaluate with Solve or SolveAt; the per-channel and per-path
// accessors report the latest solve. A Model is not safe for concurrent
// use.
type Model struct {
	in       Input
	g        *topology.Graph
	channels []channelState
	// trans is sorted by (from, to): the fixed point sums a channel's
	// transitions in list order and float addition is not associative, so
	// the order is fixed rather than inherited from map iteration.
	trans []transition
	// turns holds every flow's turn ranks, one byte per hop.
	turns []uint8
	// unicast holds every source/destination pair with p > 0, in
	// (src, dst) order; mcast the multicast branches, source by source,
	// with mcastOf[src]..mcastOf[src+1] delimiting a source's (nil when
	// α = 0). Replaying them in this order reproduces every += of a
	// from-scratch enumeration.
	unicast []flow
	mcast   []flow
	mcastOf []int32
	// rows lists, in index order, the channels Eq. 6 can update: the
	// non-ejection channels some traffic-carrying route crosses. Every
	// other channel keeps x̄ = msg and a wait fixed for the whole solve.
	rows []int32
	// active counts the sources that generate traffic: all of them, unless
	// a permutation self-map silences some. Latency averages divide by it,
	// matching the simulator's per-message means.
	active int
	// Scratch of the multicast combination (Eq. 13).
	waits, rates, memo []float64
}

const (
	defaultDamping = 0.5
	defaultMaxIter = 20000
	defaultTol     = 1e-9
)

// NewModel enumerates the workload's flows over the router and assembles
// the rate-independent structure: routes, transitions and their order.
// in.Spec.Rate is only the rate Solve evaluates at.
func NewModel(in Input) (*Model, error) {
	if in.Router == nil {
		return nil, fmt.Errorf("core: nil router")
	}
	if err := in.Spec.ValidateFor(in.Router.Graph().Nodes()); err != nil {
		return nil, err
	}
	if a := in.Spec.Arrival; a != "" && a != "poisson" {
		// The M/G/1 waiting-time formulas assume Poisson arrivals; any
		// other registered process invalidates Eq. 3 silently, so fail
		// loudly instead.
		return nil, fmt.Errorf("core: %w, got %q (use the simulator)", ErrNonPoisson, a)
	}
	if in.MsgLen < 2 {
		return nil, fmt.Errorf("core: message length %d too short", in.MsgLen)
	}
	if in.Damping == 0 {
		in.Damping = defaultDamping
	}
	if in.Damping <= 0 || in.Damping > 1 {
		return nil, fmt.Errorf("core: damping %v out of (0,1]", in.Damping)
	}
	if in.MaxIter == 0 {
		in.MaxIter = defaultMaxIter
	}
	if in.Tol == 0 {
		in.Tol = defaultTol
	}
	g := in.Router.Graph()
	n := g.Nodes()
	m := &Model{in: in, g: g, channels: make([]channelState, g.NumChannels()), active: n}
	if in.Spec.Perm != nil {
		m.active = 0
		for src := 0; src < n; src++ {
			if !in.Spec.Silent(topology.NodeID(src)) {
				m.active++
			}
		}
	}
	alpha := in.Spec.MulticastFrac
	// Every route comes from the router's table (the router itself, when
	// it already is the table for the spec's set), and every flow keeps
	// the table's own path.
	routes, err := routing.NewTable(in.Router, in.Spec.Set)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// A route turns from a channel into a link leaving the node it enters
	// or into one of that node's ejection channels, so a channel has at
	// most width successors; a turn rank must also stay below noTurn.
	// succ[id*width:][:trHi] are the ones carrying routes take, as first
	// met; trHi counts them until they are numbered.
	degree := make([]int32, n)
	for _, c := range g.Channels() {
		if c.Kind == topology.Link {
			degree[c.Src]++
		}
	}
	width := min(g.Ports()+int(slices.Max(degree)), noTurn-1)
	succ := make([]topology.ChannelID, len(m.channels)*width)
	// rows[id] is 1 while building if a carrying route crosses channel id;
	// the list of row indices is compacted into it at the end.
	rows := make([]int32, len(m.channels))
	nturns, ntrans, full := 0, 0, topology.None
	add := func(path routing.Path, carries bool) flow {
		f := flow{path: path, turn: nturns}
		nturns += len(path)
		for i := 0; carries && i < len(path); i++ {
			id := path[i]
			rows[id] = 1
			if i == 0 {
				continue
			}
			from, c := path[i-1], &m.channels[path[i-1]]
			switch {
			case slices.Contains(succ[int(from)*width:][:c.trHi], id):
			case int(c.trHi) == width:
				full = from
			default:
				succ[int(from)*width+int(c.trHi)] = id
				c.trHi++
				ntrans++
			}
		}
		return f
	}

	// Multicast flows: one per branch per source. Silent sources
	// (permutation self-maps) generate nothing, multicast included,
	// matching the simulator's workload.
	if alpha > 0 {
		m.mcastOf = make([]int32, n+1)
		maxBranches := 0
		for src := 0; src < n; src++ {
			m.mcastOf[src+1] = m.mcastOf[src]
			if in.Spec.Silent(topology.NodeID(src)) {
				continue
			}
			branches, err := routes.MulticastBranches(topology.NodeID(src), in.Spec.Set)
			if err != nil {
				return nil, fmt.Errorf("core: multicast branches at %d: %w", src, err)
			}
			for _, b := range branches {
				m.mcast = append(m.mcast, add(b.Path, true))
			}
			m.mcastOf[src+1] = int32(len(m.mcast))
			maxBranches = max(maxBranches, len(branches))
		}
		m.waits = make([]float64, maxBranches)
		m.rates = make([]float64, 0, maxBranches)
	}

	// Unicast flows: per-pair probabilities from the spec (uniform in the
	// paper's setup; skewed under hotspot, permutation or weight-matrix
	// traffic), one O(n) row per source. At α = 1 they carry nothing, but
	// Eq. 7 still averages over their routes.
	probs := make([]float64, n)
	for src := 0; src < n; src++ {
		in.Spec.UnicastProbRow(n, topology.NodeID(src), probs)
		for dst := 0; dst < n; dst++ {
			p := probs[dst]
			if p == 0 {
				continue
			}
			f := add(routes.Unicast(topology.NodeID(src), topology.NodeID(dst))[0].Path, alpha < 1)
			f.p = p
			m.unicast = append(m.unicast, f)
		}
		if src == 0 {
			// Sources route much alike: reserve the first one's share for each.
			m.unicast = slices.Grow(m.unicast, (n-1)*len(m.unicast))
		}
	}
	if full != topology.None {
		return nil, fmt.Errorf("core: routes turn from channel %d into more than %d channels", full, width)
	}

	// Number the transitions channel by channel, each channel's successors
	// in id order: trans is sorted by (from, to).
	m.trans = make([]transition, 0, ntrans)
	for id := range m.channels {
		c := &m.channels[id]
		s := succ[id*width:][:c.trHi]
		slices.Sort(s)
		c.trLo = int32(len(m.trans))
		for _, to := range s {
			m.trans = append(m.trans, transition{to: to})
		}
		c.trHi = int32(len(m.trans))
	}
	// Rank every hop's turn within its previous channel's run. A turn no
	// carrying route takes has index -1, which converts to noTurn.
	m.turns = make([]uint8, nturns)
	for _, flows := range [2][]flow{m.mcast, m.unicast} {
		for _, f := range flows {
			m.turns[f.turn] = noTurn
			for i := 1; i < len(f.path); i++ {
				from, c := f.path[i-1], &m.channels[f.path[i-1]]
				m.turns[f.turn+i] = uint8(slices.Index(succ[int(from)*width:][:c.trHi-c.trLo], f.path[i]))
			}
		}
	}
	// Compact in place: the write index never passes the read index.
	k := 0
	for i, carried := range rows {
		if carried != 0 && g.Channel(topology.ChannelID(i)).Kind != topology.Ejection {
			rows[k] = int32(i)
			k++
		}
	}
	m.rows = rows[:k]
	m.load(in.Spec.Rate)
	return m, nil
}

// Clone returns a copy that solves independently of m, for use on another
// goroutine: the per-solve state is copied, the route structure (read-only
// once built) is shared.
func (m *Model) Clone() *Model {
	c := *m
	c.channels = slices.Clone(m.channels)
	c.trans = slices.Clone(m.trans)
	c.waits = make([]float64, len(m.waits))
	c.rates = make([]float64, 0, cap(m.rates))
	c.memo = nil
	return &c
}

// Lambda returns the modeled arrival rate at a channel: at the input's
// rate once built, then at the latest solve's.
func (m *Model) Lambda(id topology.ChannelID) float64 { return m.channels[id].lambda }

// Solve evaluates the model at the input's generation rate.
func (m *Model) Solve() (Prediction, error) { return m.SolveAt(m.in.Spec.Rate) }

// load resets the arrival and transition rates to generation rate lam by
// replaying the flows in enumeration order.
//
//quarc:hotpath
func (m *Model) load(lam float64) {
	for i := range m.channels {
		m.channels[i].lambda = 0
	}
	for i := range m.trans {
		// Unloaded, a transition counts its head's wait in full (scale 1).
		tr := &m.trans[i]
		tr.rate, tr.p, tr.scale = 0, 0, 1
	}
	alpha := m.in.Spec.MulticastFrac
	if lam > 0 && alpha < 1 {
		for _, f := range m.unicast {
			m.addFlow(f, float64(lam*(1-alpha)*f.p))
		}
	}
	if lam > 0 && alpha > 0 {
		for _, f := range m.mcast {
			m.addFlow(f, float64(lam*alpha))
		}
	}
	// The quotients of Eq. 6 do not change over the fixed point. A loaded
	// transition has a positive rate, so both ends have a positive λ. At a
	// subnormal rate a flow's share can round to 0: its transition stays
	// unloaded, and its head may carry nothing, so scale keeps 1 rather
	// than 1 - 0/0 (p = 0 weights the term out of Eq. 6; a NaN would not).
	for i := range m.channels {
		c := &m.channels[i]
		if c.lambda == 0 {
			continue
		}
		for t := c.trLo; t < c.trHi; t++ {
			tr := &m.trans[t]
			tr.p = tr.rate / c.lambda
			if tr.rate > 0 {
				tr.scale = 1 - tr.rate/m.channels[tr.to].lambda
				if tr.scale < 0 {
					tr.scale = 0
				}
			}
		}
	}
}

// addFlow adds one flow's rate to the λ of every channel on its route and
// to the rate of every transition it takes.
//
//quarc:hotpath
func (m *Model) addFlow(f flow, rate float64) {
	turns := m.turns[f.turn:][:len(f.path)]
	var from *channelState
	for i, id := range f.path {
		c := &m.channels[id]
		c.lambda += rate
		if t := turns[i]; t != noTurn {
			m.trans[from.trLo+int32(t)].rate += rate
		}
		from = c
	}
}

// SolveAt runs the service-time fixed point (Eq. 6 with the P-K wait of
// Eq. 3) at the given per-node generation rate, from the same cold start
// every time, and computes the unicast (Eq. 7) and multicast (Eqs. 13-16)
// latencies: the result is bit-for-bit that of a model built at the rate.
func (m *Model) SolveAt(rate float64) (Prediction, error) {
	pred, err := m.verdict(rate)
	if err != nil || pred.Saturated {
		return pred, err
	}
	pred.UnicastLatency = m.unicastLatency()
	pred.MulticastLatency, err = m.multicastLatency(rate)
	return pred, err
}

// verdict is SolveAt without the latency sums: the fixed point, the
// saturation verdict and, when stable, the final waits and the error that
// a permutation silencing every node makes.
func (m *Model) verdict(rate float64) (Prediction, error) {
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return Prediction{}, fmt.Errorf("core: invalid rate %v", rate)
	}
	m.load(rate)
	iter, converged, saturated := m.fixedPoint()

	maxRho := 0.0
	for i := range m.channels {
		c := &m.channels[i]
		if rho := c.lambda * c.service; rho > maxRho {
			maxRho = rho
		}
	}
	if maxRho >= 1 {
		saturated = true
	}

	pred := Prediction{Saturated: saturated, MaxRho: maxRho, Iterations: iter, Converged: converged}
	if saturated {
		pred.UnicastLatency = math.Inf(1)
		pred.MulticastLatency = math.Inf(1)
		return pred, nil
	}

	// Final waits from converged services; only the rows' have moved.
	msg, eq3 := float64(m.in.MsgLen), m.in.WaitFormula == PaperEq3Literal
	for _, r := range m.rows {
		c := &m.channels[r]
		c.wait = waitOf(c.lambda, c.service, msg, eq3)
	}

	if m.active == 0 {
		return pred, fmt.Errorf("core: the permutation silences every node")
	}
	return pred, nil
}

// fixedPoint runs the service-time fixed point of Eq. 6, with the P-K wait
// of Eq. 3, from the cold start x̄ = msg on every channel, over the rates
// load left. It returns the sweeps performed, whether they met the
// tolerance, and whether some channel's wait went infinite (ρ ≥ 1).
//
// The sweep is Gauss–Seidel in channel index order: a channel reads the
// services its downstream channels already have this sweep, so the rows
// are visited in index order and every sum keeps its operand order. Only
// the rows move; the waits of all other channels are computed once.
//
//quarc:hotpath
func (m *Model) fixedPoint() (iter int, converged, saturated bool) {
	msg := float64(m.in.MsgLen)
	hop := 1.0
	if m.in.ServiceFormula == TailRelease {
		hop = 0
	}
	eq3 := m.in.WaitFormula == PaperEq3Literal
	damping, tol := m.in.Damping, m.in.Tol
	chans, trans, rows := m.channels, m.trans, m.rows

	// Cold start. A channel off the row list keeps x̄ = msg, so the wait
	// found here is its wait for the whole solve: constant at an ejection
	// channel, 0 where no traffic flows.
	constUnstable := false
	for i := range chans {
		c := &chans[i]
		c.service = msg
		c.wait = waitOf(c.lambda, msg, msg, eq3)
		if math.IsInf(c.wait, 1) {
			constUnstable = true
		}
	}

	for ; iter < m.in.MaxIter; iter++ {
		// Waits from current services.
		unstable := constUnstable
		for _, r := range rows {
			c := &chans[r]
			c.wait = waitOf(c.lambda, c.service, msg, eq3)
			if math.IsInf(c.wait, 1) {
				unstable = true
			}
		}
		if unstable {
			return iter, false, true
		}
		// Service-time sweep (Eq. 6). Convergence reads maxDelta only as
		// maxDelta < tol and maxDelta never falls within a sweep, so once
		// one row misses the tolerance the rest need not be measured.
		maxDelta := 0.0
		for _, r := range rows {
			c := &chans[r]
			if c.lambda == 0 {
				continue // a rate so small its share of every flow rounds to 0
			}
			var x float64
			for _, tr := range trans[c.trLo:c.trHi] {
				b := &chans[tr.to]
				x += float64(tr.p * (float64(tr.scale*b.wait) + b.service + hop))
			}
			nx := c.service + float64(damping*(x-c.service))
			if maxDelta < tol {
				scale := c.service // math.Max(1, x̄), which does not inline
				if scale < 1 {
					scale = 1
				}
				if d := math.Abs(nx-c.service) / scale; d > maxDelta {
					maxDelta = d
				}
			}
			c.service = nx
		}
		if maxDelta < tol {
			return iter + 1, true, false
		}
	}
	return iter, false, false
}

// posInf is +Inf as a load, not a call: it keeps waitOf within the
// inlining budget.
var posInf = math.Inf(1)

// waitOf is a channel's M/G/1 wait under the configured formula (eq3
// selects PaperEq3Literal): the tests' ServiceSigma, then MG1Wait or
// MG1WaitPaperEq3, open-coded with the same expressions in the same
// operand order. Their argument checks cannot fire here: λ ≥ 0, x̄ > 0
// (every route ends at an ejection channel, so a row's x̄ sums positive
// terms), and λ = 0 gives +0 as the checks would.
//
//quarc:hotpath
func waitOf(lambda, xbar, msg float64, eq3 bool) float64 {
	rho := float64(lambda * xbar)
	if rho >= 1 {
		return posInf
	}
	sigma := xbar - msg
	if sigma < 0 {
		sigma = 0
	}
	if eq3 {
		cv := 1 + sigma*sigma/(xbar*xbar)
		return lambda * rho * cv / (2 * (1 - rho))
	}
	ex2 := float64(xbar*xbar) + float64(sigma*sigma)
	return lambda * ex2 / (2 * (1 - rho))
}

// hopWait is one channel's share of a path's header wait: its M/G/1 wait,
// scaled — when entered over transition tr — by one minus the share of the
// channel's traffic the path itself contributes (the factor in Eq. 6).
// The injection channel (external Poisson arrivals) and turns no flow
// takes have tr < 0 and count in full.
func (m *Model) hopWait(ch topology.ChannelID, tr int32) float64 {
	c := &m.channels[ch]
	if c.lambda == 0 {
		return 0
	}
	if tr < 0 {
		return c.wait
	}
	return c.wait * m.trans[tr].scale
}

// flowWait sums the hopWaits of f's hops from hop first on.
//
//quarc:hotpath
func (m *Model) flowWait(f flow, first int) float64 {
	var total float64
	for i := first; i < len(f.path); i++ {
		tr := int32(-1)
		if t := m.turns[f.turn+i]; t != noTurn {
			tr = m.channels[f.path[i-1]].trLo + int32(t)
		}
		total += m.hopWait(f.path[i], tr)
	}
	return total
}

// PathWait returns the expected total waiting time of a header along a
// path: the sum of its channels' hopWaits.
func (m *Model) PathWait(path routing.Path) float64 {
	var total float64
	for i, id := range path {
		tr := int32(-1)
		if i > 0 {
			c := &m.channels[path[i-1]]
			for t := c.trLo; t < c.trHi; t++ {
				if m.trans[t].to == id {
					tr = t
				}
			}
		}
		total += m.hopWait(id, tr)
	}
	return total
}

func (m *Model) unicastLatency() float64 {
	var sum float64
	for _, f := range m.unicast {
		// A route's latency is ΣW + msg + D, with D = hops-1 the header
		// pipeline depth (the simulator's zero-load latency is exactly
		// D + msg). Weight each pair by the probability a message takes it,
		// so the average is over messages, as the simulator measures it.
		sum += float64(f.p * (m.flowWait(f, 0) + float64(m.in.MsgLen) + float64(len(f.path)-1)))
	}
	return sum / float64(m.active)
}

func (m *Model) multicastLatency(rate float64) (float64, error) {
	if m.mcastOf == nil || rate == 0 {
		return math.NaN(), nil // no multicast traffic
	}
	if err := m.missingBranches(); err != nil {
		return 0, err
	}
	serialized := m.g.Ports() == 1
	var sum float64
	for src := 0; src < m.g.Nodes(); src++ {
		if m.in.Spec.Silent(topology.NodeID(src)) {
			continue
		}
		branches := m.mcast[m.mcastOf[src]:m.mcastOf[src+1]]
		if serialized && len(branches) > 1 {
			sum += m.serializedMulticastNode(branches)
			continue
		}
		waits := m.waits[:len(branches)]
		maxD := 0
		for i, b := range branches {
			waits[i] = m.flowWait(b, 0)
			maxD = max(maxD, len(b.path)-1)
		}
		// Eqs. 13-14: last-of-m exponential wait + msg + max hops.
		sum += multicastWait(waits, m.rates, &m.memo) + float64(m.in.MsgLen) + float64(maxD)
	}
	return sum / float64(m.active), nil
}

// missingBranches reports the first generating source without multicast
// branches, which the multicast latency cannot average over.
func (m *Model) missingBranches() error {
	for src := 0; m.mcastOf != nil && src < m.g.Nodes(); src++ {
		if m.mcastOf[src] == m.mcastOf[src+1] && !m.in.Spec.Silent(topology.NodeID(src)) {
			return fmt.Errorf("core: node %d has no multicast branches", src)
		}
	}
	return nil
}

// serializedMulticastNode models multicast on a one-port router, which is
// outside the paper's scope (the paper's Eq. 12 machinery assumes
// asynchronous multi-port injection). With a single injection channel the
// m branches of one message queue up behind each other: branch k cannot be
// granted the port before the k-1 earlier branches have released it, each
// holding it for the port's mean holding time x̄. The k-th branch's
// latency is therefore the port wait plus (k-1)·x̄ plus its own network
// traversal, and the multicast completes with the slowest branch. At zero
// load this reduces to (k-1)·msg + msg + D exactly, matching the
// simulator. This extension is what the one-port ablation exercises.
func (m *Model) serializedMulticastNode(branches []flow) float64 {
	inj := &m.channels[branches[0].path[0]]
	msg := float64(m.in.MsgLen)
	worst := 0.0
	for k, b := range branches {
		tail := m.flowWait(b, 1)
		lat := inj.wait + float64(float64(k)*inj.service) + tail + msg + float64(len(b.path)-1)
		if lat > worst {
			worst = lat
		}
	}
	return worst
}

// SaturationRate bisects for the highest generation rate at which the model
// is stable, within relative tolerance tol ∈ (0,1). A tol below the float
// spacing ends the search when lo and hi are adjacent floats.
func (m *Model) SaturationRate(tol float64) (float64, error) {
	if !(tol > 0 && tol < 1) {
		return 0, fmt.Errorf("core: saturation tolerance %v out of (0,1)", tol)
	}
	lo := 0.0
	hi := 1.0 / float64(m.in.MsgLen) // one message per drain time is far beyond capacity
	for hi-lo > tol*hi {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break // no float lies strictly between lo and hi
		}
		// Only the verdict matters, and a stable one fails where SolveAt's
		// latency sums would.
		pred, err := m.verdict(mid)
		if err == nil && !pred.Saturated {
			err = m.missingBranches()
		}
		if err != nil {
			return 0, err
		}
		if pred.Saturated {
			hi = mid
		} else {
			lo = mid
		}
	}
	if lo == 0 {
		return 0, fmt.Errorf("core: no stable rate found below %v", hi)
	}
	return lo, nil
}

// Predict is the one-shot convenience: build the model and solve it.
func Predict(in Input) (Prediction, error) {
	m, err := NewModel(in)
	if err != nil {
		return Prediction{}, err
	}
	return m.Solve()
}
