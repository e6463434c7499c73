// Package noc is the public entry point of the Quarc NoC performance
// study: one declarative Scenario type drives both the paper's analytical
// M/G/1 wormhole model and the discrete-event wormhole simulator, and both
// return the same Result type.
//
// A scenario is stated as a Spec, whose names index closed, string-keyed
// tables of topologies, traffic patterns, spatial patterns and arrival
// processes:
//
//	s, err := noc.Spec{
//		Topology: "quarc", N: 64,
//		MsgLen:   32,
//		Rate:     0.001,
//		Alpha:    0.05,
//		Pattern:  "random", Dests: 8, SetSeed: 1,
//	}.Scenario()
//	pred, err := noc.Model{}.Evaluate(s)     // paper Eqs. 3-16
//	meas, err := noc.Simulator{}.Evaluate(s) // discrete-event simulation
//
// Evaluator is the common interface; Sweep runs any evaluator set across a
// rate (and message-size) grid with a bounded worker pool. The figure
// panels of the paper's evaluation are exposed through FigurePanels and
// RunFigurePanels, and the DESIGN.md §7 ablation studies through
// OnePortAblation, SpidergonComparison, MeshExtension and
// ServiceFormulaAblation.
//
// The tables are closed: a name means the same builder in every process,
// which is what lets a Spec's Fingerprint stand for its Result. Each
// topology is routed by exactly one router, so a scenario names its
// topology and the router follows. Topologies(), Routers(), Patterns(),
// Spatials() and Arrivals() enumerate what is available; adding a
// topology or pattern is one table entry in builtin.go.
//
// Spec is the one input: the same struct is a Go literal, a quarcsim
// -spec document and a quarcd request body. Spec.Scenario compiles it;
// Scenario.With adds the process-local attachments that have no wire
// form (Record, Replay, MetricsSink). The canonical encoding's FNV-1a
// Fingerprint content-addresses its Result —
// the key the noc/service layer (and the quarcd daemon) cache and
// deduplicate evaluations under. ParseSpec is the strict entry point for
// untrusted documents.
package noc
