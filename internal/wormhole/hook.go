package wormhole

// The hook layer is the simulator's one observation path: traces, the
// detail breakdown, metrics and workload recording are all subscribers.
// Hooks register at explicit positions with Network.Attach and receive
// one HookCtx value per event; the registrations live in per-position
// flat slices guarded by a bitmask, so the disabled path costs one uint8
// test per site — the hot-path functions stay //quarc:hotpath-clean at 0
// allocs/op with the layer compiled in (pinned by the no-op-hook alloc
// tests).
//
// Hooks observe; they must not mutate the network. A pure recording
// hook leaves the Result bitwise-identical to an unhooked run (pinned
// by noc's TestMetricsDoNotPerturbResult): every HookCtx is passed by
// value and carries only times, identifiers and counts.

import "quarc/internal/topology"

// HookPos is a typed hook position: where in the simulation a hook
// fires.
type HookPos uint8

const (
	// HookWormInjected fires once per message the network actually
	// injects (draws that never materialize get no call), with the
	// injection time, source node and multicast flag.
	HookWormInjected HookPos = iota
	// HookWormEjected fires when a message's last branch completes,
	// with the completion time and the message's end-to-end latency.
	HookWormEjected
	// HookChannelGranted fires when a worm is granted a channel.
	HookChannelGranted
	// HookChannelReleased fires when a worm's tail vacates a channel.
	// For a coalesced span drain the hook fires at the moment the
	// deferred release is applied, but Time carries the exact logical
	// release time — identical to the fine-grained schedule.
	HookChannelReleased
	// HookQueueChanged fires when a channel's wait queue grows (a worm
	// blocked) or shrinks (a queued worm was granted), with the new
	// occupancy. Only the occupancy tells the two apart.
	HookQueueChanged
	// HookBranchDone fires when one branch of a message absorbs its last
	// flit, before the message's HookWormEjected.
	HookBranchDone
	// HookSampleFolded fires once per measured completion as the
	// latency estimators fold it: in the canonical (completion,
	// generation, source) order, with Time the completion time and
	// Latency exactly the value folded into the Result.
	HookSampleFolded

	numHookPos
)

// String names the position for logs and recorder output.
func (p HookPos) String() string {
	switch p {
	case HookWormInjected:
		return "worm-injected"
	case HookWormEjected:
		return "worm-ejected"
	case HookChannelGranted:
		return "channel-granted"
	case HookChannelReleased:
		return "channel-released"
	case HookQueueChanged:
		return "queue-changed"
	case HookBranchDone:
		return "branch-done"
	case HookSampleFolded:
		return "sample-folded"
	}
	return "unknown"
}

// HookCtx is the payload delivered to a hook: one value per firing,
// with the fields meaningful for the position filled in.
type HookCtx struct {
	// Pos is the position this firing came from.
	Pos HookPos
	// Time is the simulated time of the underlying micro-event. For a
	// lazily applied span release this is the logical release time,
	// which can lie before the engine's current time.
	Time float64
	// Node is the injecting node (HookWormInjected only; -1 elsewhere).
	Node topology.NodeID
	// Channel is the channel involved (grant/release/queue positions;
	// topology.None elsewhere).
	Channel topology.ChannelID
	// Branch is the index of the message's branch the worm involved
	// carries (grant/release/queue/branch-done positions; -1 at the
	// message-level positions).
	Branch int
	// Msg is the id of the message involved.
	Msg int64
	// Multicast marks the message as a multicast.
	Multicast bool
	// Latency is the message's end-to-end latency (HookWormEjected and
	// HookSampleFolded only).
	Latency float64
	// Occupancy is the channel queue length after the change
	// (HookQueueChanged only).
	Occupancy int
}

// Hook receives simulation events. Func is called synchronously from
// the event loop, so implementations must be cheap and must not mutate
// the network or its traffic source.
type Hook interface {
	Func(HookCtx)
}

// Attach registers h at the given positions (at every position when
// none are named). Registration is additive and ordered: hooks at one
// position fire in attach order. Attach is not safe concurrently with
// Run; attach before running, and re-attach after Reset — a reset
// network is pristine and starts with no hooks. An attached hook turns
// header flights off (DESIGN.md §10), so hooks see every header step.
func (nw *Network) Attach(h Hook, at ...HookPos) {
	if len(at) == 0 {
		for p := range numHookPos {
			at = append(at, p)
		}
	}
	for _, p := range at {
		if p >= numHookPos {
			panic("wormhole: Attach at unknown hook position")
		}
		nw.hooks[p] = append(nw.hooks[p], h)
		nw.hookMask |= 1 << p
	}
}

// detachHooks returns the network to its unhooked state, keeping the
// per-position backing arrays for reuse. ResetOn calls it so a pooled
// network never leaks one run's hooks into the next.
func (nw *Network) detachHooks() {
	for i := range nw.hooks {
		hs := nw.hooks[i]
		for j := range hs {
			hs[j] = nil
		}
		nw.hooks[i] = hs[:0]
	}
	nw.hookMask = 0
}

// fire delivers c to every hook attached at c.Pos. Callers guard with
// the position's hookMask bit, so the disabled path never enters here.
//
//quarc:hotpath
func (nw *Network) fire(c HookCtx) {
	for _, h := range nw.hooks[c.Pos] {
		h.Func(c)
	}
}

// ObserverHook adapts the legacy Observer extension to the hook API:
// the returned hook forwards HookWormInjected firings to o.Injected.
// Attach it at HookWormInjected — the position the implicit
// traffic.(Observer) resolution used to serve.
func ObserverHook(o Observer) Hook { return observerHook{o} }

type observerHook struct{ o Observer }

func (h observerHook) Func(c HookCtx) {
	if c.Pos == HookWormInjected {
		h.o.Injected(c.Node, c.Time, c.Multicast)
	}
}
