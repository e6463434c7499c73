package noc

import (
	"fmt"
	"sort"

	"quarc/internal/routing"
	"quarc/internal/traffic"
)

// topologyDef is one row of the closed topology table: the name of the
// one router that routes the family, and a builder that makes the
// topology the configuration sizes and wraps it in that router.
type topologyDef struct {
	router string
	build  func(*config) (routing.Router, error)
}

// Topologies returns the topology names, sorted.
func Topologies() []string { return names(topologies) }

// Routers returns the router names, sorted: the routers the topologies
// are built with.
func Routers() []string {
	used := make(map[string]bool, len(topologies))
	for _, def := range topologies {
		used[def.router] = true
	}
	return names(used)
}

// Patterns returns the traffic-pattern names, sorted.
func Patterns() []string { return names(patterns) }

// Spatials returns the spatial-pattern names, sorted.
func Spatials() []string { return names(spatials) }

// Arrivals returns the arrival-process names, sorted: "bernoulli",
// "onoff", "periodic" and "poisson" (the default).
func Arrivals() []string { return traffic.Arrivals() }

// names returns a table's keys, sorted.
func names[V any](table map[string]V) []string {
	out := make([]string, 0, len(table))
	for name := range table {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// lookup resolves a name in one of the tables, or rejects it with the
// names the table knows.
func lookup[V any](table map[string]V, kind, name string) (V, error) {
	v, ok := table[name]
	if !ok {
		return v, fmt.Errorf("%w: unknown %s %q (known: %v)", ErrInvalidOption, kind, name, names(table))
	}
	return v, nil
}
