package noc

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

func TestRegistryNames(t *testing.T) {
	for _, want := range []string{"quarc", "quarc-oneport", "spidergon", "mesh", "torus", "hypercube"} {
		if !slices.Contains(Topologies(), want) {
			t.Errorf("Topologies() = %v, missing %q", Topologies(), want)
		}
	}
	for _, want := range []string{"quarc", "spidergon", "mesh", "hypercube"} {
		if !slices.Contains(Routers(), want) {
			t.Errorf("Routers() = %v, missing %q", Routers(), want)
		}
	}
	for _, want := range []string{"none", "random", "localized", "broadcast", "highlow"} {
		if !slices.Contains(Patterns(), want) {
			t.Errorf("Patterns() = %v, missing %q", Patterns(), want)
		}
	}
	// Every name in every table is lowercase, so spec documents and CLI
	// flags never depend on the caller's casing, and every listing is
	// sorted, so /v1/registry is byte-stable.
	for kind, list := range map[string][]string{
		"topology": Topologies(), "router": Routers(), "pattern": Patterns(),
		"spatial": Spatials(), "arrival": Arrivals(),
	} {
		if len(list) == 0 {
			t.Errorf("no %s names", kind)
		}
		if !slices.IsSorted(list) {
			t.Errorf("%s names %v are not sorted", kind, list)
		}
		for _, name := range list {
			if name != strings.ToLower(name) {
				t.Errorf("%s name %q is not lowercase", kind, name)
			}
		}
	}
}

// TestRegistryRoundTrip builds one scenario per registered built-in
// topology through the declarative name-based lookup.
func TestRegistryRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		cfg   TopologyConfig
		nodes int
	}{
		{"quarc", TopologyConfig{N: 16}, 16},
		{"quarc-oneport", TopologyConfig{N: 16}, 16},
		{"spidergon", TopologyConfig{N: 16}, 16},
		{"mesh", TopologyConfig{W: 4, H: 4}, 16},
		{"torus", TopologyConfig{W: 4, H: 4}, 16},
		{"hypercube", TopologyConfig{Dims: 4}, 16},
	}
	for _, c := range cases {
		s, err := NewScenario(Topology(c.name, c.cfg), Rate(0.001))
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if s.cfg.Topology != c.name {
			t.Errorf("%s: TopologyName() = %q", c.name, s.cfg.Topology)
		}
		if s.Nodes() != c.nodes {
			t.Errorf("%s: Nodes() = %d, want %d", c.name, s.Nodes(), c.nodes)
		}
		if _, err := (Model{}).Evaluate(s); err != nil {
			t.Errorf("%s: model evaluation: %v", c.name, err)
		}
	}
}

func TestRegistryUnknownNames(t *testing.T) {
	_, err := NewScenario(Topology("ring", TopologyConfig{N: 8}))
	if err == nil || !strings.Contains(err.Error(), `unknown topology "ring"`) {
		t.Errorf("unknown topology error = %v", err)
	}
	// The error must list the known names so the registry is discoverable
	// from the failure alone.
	if err != nil && !strings.Contains(err.Error(), "quarc") {
		t.Errorf("unknown topology error does not list known names: %v", err)
	}

	_, err = Spec{Router: "xy"}.Scenario()
	if err == nil || !strings.Contains(err.Error(), `unknown router "xy"`) {
		t.Errorf("unknown router error = %v", err)
	}

	_, err = NewScenario(Quarc(16), Pattern("bitcomp", PatternConfig{}))
	if err == nil || !strings.Contains(err.Error(), `unknown traffic pattern "bitcomp"`) {
		t.Errorf("unknown pattern error = %v", err)
	}
}

func TestPatternTopologyMismatch(t *testing.T) {
	// Hamilton-path offsets only exist on mesh/torus.
	if _, err := NewScenario(Quarc(16), Alpha(0.05), HighLowDests([]int{1}, nil)); err == nil {
		t.Error("highlow pattern on quarc should fail")
	}
	// Rim-localized sets only exist on quarc/spidergon.
	if _, err := NewScenario(Mesh(4, 4), Alpha(0.05), LocalizedDests(0, 3)); err == nil {
		t.Error("localized pattern on mesh should fail")
	}
}

// TestResolveErrorOrder pins the order in which resolve reports a spec's
// faults: each document carries two, and the first in resolve's order
// wins — unknown topology, unknown router, unknown pattern, topology
// size, router of another topology, pattern on the topology, unknown
// spatial pattern, spatial pattern on the topology, then validation.
func TestResolveErrorOrder(t *testing.T) {
	cases := []struct{ doc, want string }{
		{`{"topology":"ring","router":"xy"}`, `unknown topology "ring"`},
		{`{"router":"xy","pattern":"bogus"}`, `unknown router "xy"`},
		{`{"pattern":"bogus","n":10}`, `unknown traffic pattern "bogus"`},
		{`{"topology":"mesh","router":"quarc"}`, "mesh dimensions"},
		{`{"topology":"mesh","w":4,"h":4,"router":"quarc","pattern":"localized","dests":3}`, "routed by the mesh router"},
		{`{"pattern":"localized","dests":12,"spatial":"bogus"}`, "localized set size 12"},
		{`{"spatial":"bogus","trace_node":99,"trace_limit":5}`, `unknown spatial pattern "bogus"`},
		{`{"n":12,"spatial":"transpose","trace_node":99,"trace_limit":5}`, "power-of-two"},
	}
	for _, tc := range cases {
		sp, err := ParseSpec([]byte(tc.doc))
		if err != nil {
			t.Fatalf("%s: %v", tc.doc, err)
		}
		_, err = sp.Scenario()
		if !errors.Is(err, ErrInvalidOption) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want ErrInvalidOption reporting %q", tc.doc, err, tc.want)
		}
	}
}
