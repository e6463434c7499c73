package wormhole

import (
	"testing"

	"quarc/internal/topology"
	"quarc/internal/traffic"
)

// countingHook tallies firings per position and checks basic payload
// invariants as they stream by.
type countingHook struct {
	t      *testing.T
	counts [numHookPos]int
}

func (h *countingHook) Func(c HookCtx) {
	h.counts[c.Pos]++
	switch c.Pos {
	case HookWormInjected:
		if c.Node < 0 {
			h.t.Errorf("injected firing without a source node: %+v", c)
		}
	case HookChannelGranted, HookChannelReleased:
		if c.Channel == topology.None {
			h.t.Errorf("%v firing without a channel: %+v", c.Pos, c)
		}
	case HookWormEjected:
		if c.Latency <= 0 {
			h.t.Errorf("ejected firing with non-positive latency: %+v", c)
		}
	case HookQueueChanged:
		if c.Occupancy < 0 {
			h.t.Errorf("queue firing with negative occupancy: %+v", c)
		}
	}
}

func hookTestNetwork(t *testing.T) (*Network, *traffic.Workload, Config) {
	t.Helper()
	rt := quarcRouter(t, 16)
	set, err := rt.LocalizedSet(topology.PortL, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := traffic.NewWorkload(rt, traffic.Spec{Rate: 0.004, MulticastFrac: 0.05, Set: set}, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Drain lets in-flight worms finish, so grant/release counts balance
	// and no channel is left held at the end of the run.
	cfg := Config{MsgLen: 32, Warmup: 500, Measure: 5000, Drain: true}
	nw, err := New(rt.Graph(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw, w, cfg
}

// TestHookFiresAtEveryPosition pins the hook API's coverage: one run of
// the mid-load configuration fires every position, grants balance
// releases, and injections match the run's generated count.
func TestHookFiresAtEveryPosition(t *testing.T) {
	nw, _, _ := hookTestNetwork(t)
	h := &countingHook{t: t}
	nw.Attach(h)
	r := nw.Run()
	for p := HookPos(0); p < numHookPos; p++ {
		if h.counts[p] == 0 {
			t.Errorf("position %v never fired", p)
		}
	}
	if h.counts[HookChannelGranted] != h.counts[HookChannelReleased] {
		t.Errorf("grants %d != releases %d (a drained run balances them)",
			h.counts[HookChannelGranted], h.counts[HookChannelReleased])
	}
	// Hooks observe the whole run — warmup included — so injections are a
	// superset of the measured-window Generated count; in a drained run
	// every injected worm also ejects.
	if got, want := h.counts[HookWormInjected], h.counts[HookWormEjected]; got != want {
		t.Errorf("injected firings %d != ejected firings %d (drained run)", got, want)
	}
	if got, want := int64(h.counts[HookWormInjected]), r.Generated; got < want {
		t.Errorf("injected firings %d < generated messages %d", got, want)
	}
}

// TestHookPositionFilter pins Attach's position list: a hook attached
// at one position sees only that position.
func TestHookPositionFilter(t *testing.T) {
	nw, _, _ := hookTestNetwork(t)
	h := &countingHook{t: t}
	nw.Attach(h, HookWormEjected)
	nw.Run()
	for p := HookPos(0); p < numHookPos; p++ {
		if p == HookWormEjected {
			if h.counts[p] == 0 {
				t.Errorf("filtered position %v never fired", p)
			}
			continue
		}
		if h.counts[p] != 0 {
			t.Errorf("position %v fired %d times through a HookWormEjected-only attachment", p, h.counts[p])
		}
	}
}

// TestResetDetachesHooks pins the pooling contract: a Reset network is
// pristine, so one run's hooks never leak into the next.
func TestResetDetachesHooks(t *testing.T) {
	nw, w, cfg := hookTestNetwork(t)
	h := &countingHook{t: t}
	nw.Attach(h)
	nw.Run()
	fired := h.counts
	if err := w.Reset(w.Spec(), 7); err != nil {
		t.Fatal(err)
	}
	if err := nw.Reset(w, cfg); err != nil {
		t.Fatal(err)
	}
	nw.Run()
	if h.counts != fired {
		t.Errorf("detached hook still fired after Reset: %v -> %v", fired, h.counts)
	}
}

// TestAttachUnknownPositionPanics pins the API's misuse guard.
func TestAttachUnknownPositionPanics(t *testing.T) {
	nw, _, _ := hookTestNetwork(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Attach at an out-of-range position did not panic")
		}
	}()
	nw.Attach(&countingHook{t: t}, numHookPos)
}

// noopHook is the cheapest possible subscriber, for the alloc pin.
type noopHook struct{}

func (noopHook) Func(HookCtx) {}

// TestNoopHookSteadyStateAllocFree extends the PR 2 zero-alloc pin to
// the hooked loop: firing a no-op hook at every position must not
// allocate either — HookCtx is passed by value into a concrete-typed
// parameter, so no boxing happens on the way.
func TestNoopHookSteadyStateAllocFree(t *testing.T) {
	rt := quarcRouter(t, 16)
	set, err := rt.LocalizedSet(topology.PortL, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := traffic.NewWorkload(rt, traffic.Spec{Rate: 0.004, MulticastFrac: 0.05, Set: set}, 7)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(rt.Graph(), w, Config{MsgLen: 32, Warmup: 1e9, Measure: 1})
	if err != nil {
		t.Fatal(err)
	}
	nw.Attach(noopHook{})
	for node := 0; node < rt.Graph().Nodes(); node++ {
		nw.scheduleGeneration(topology.NodeID(node), 0)
	}
	nw.eng.Run(5000) // warm the pools, the wait queues and the event heap
	now := nw.eng.Now()
	avg := testing.AllocsPerRun(50, func() {
		now += 100
		nw.eng.Run(now)
	})
	if avg != 0 {
		t.Fatalf("hooked steady-state loop allocates %v allocs per 100 simulated cycles, want 0", avg)
	}
	if nw.eng.Fired() == 0 {
		t.Fatal("no events fired — the alloc measurement was vacuous")
	}
}

// TestChannelGrantReleaseAlternate pins the record-order invariant the
// series aggregation leans on: per channel, grant and release firings
// strictly alternate in emission order — a lazily drained span applies
// its release (with the logical release time) before the channel's
// next grant is announced.
func TestChannelGrantReleaseAlternate(t *testing.T) {
	nw, _, _ := hookTestNetwork(t)
	held := make(map[topology.ChannelID]bool)
	hook := hookFunc(func(c HookCtx) {
		switch c.Pos {
		case HookChannelGranted:
			if held[c.Channel] {
				t.Fatalf("channel %d granted while already held", c.Channel)
			}
			held[c.Channel] = true
		case HookChannelReleased:
			if !held[c.Channel] {
				t.Fatalf("channel %d released while not held", c.Channel)
			}
			held[c.Channel] = false
		}
	})
	nw.Attach(hook, HookChannelGranted, HookChannelReleased)
	nw.Run()
	for ch, h := range held {
		if h {
			t.Errorf("channel %d still held after the drained run", ch)
		}
	}
}

// hookFunc adapts a closure to the Hook interface for tests.
type hookFunc func(HookCtx)

func (f hookFunc) Func(c HookCtx) { f(c) }
