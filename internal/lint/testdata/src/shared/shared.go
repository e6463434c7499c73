// Package shared is the sharedstate audit's fixture: package-level
// state in every justification posture, written by runtime functions
// and by each init-time exemption.
package shared

// counter is runtime-mutated with no justification: the finding.
var counter int // want: document the concurrency story

//quarcflow:shared pure memoization guarded upstream; hits and misses are indistinguishable
var cache = map[string]int{}

//quarcflow:shared
var badDoc int // want: malformed directive (no reason)

// initOnly is written only in init: inventoried with no writers.
var initOnly = 3

// registry is a struct-typed global whose field Rename mutates: the
// field path write must surface as a writer of the global.
var registry Box // want: document the concurrency story

func init() { initOnly = 4 }

// RegisterThing is a Register* wrapper: its writes are init-time by the
// registry-hygiene contract, so they do not count as runtime mutation.
func RegisterThing(name string, v int) {
	cache[name] = v
}

// Bump and Touch are the runtime writers the findings name.
func Bump() { counter++ }

func Touch(v int) { badDoc = v }

// Rename writes a field of the registry global.
func Rename(label string) { registry.Label = label }

// Lookup only reads: reads never make a writer.
func Lookup(k string) int { return cache[k] }

// Box is the registry's type.
type Box struct {
	N     int
	Label string
}

// NewBox is a constructor: its stores to the registry are
// initialization, not shared mutation.
func NewBox(n int) *Box {
	registry.N = n
	return &registry
}

// ResetBox is likewise excluded.
func ResetBox() { registry = Box{} }
