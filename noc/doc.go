// Package noc is the public entry point of the Quarc NoC performance
// study: one declarative Scenario type drives both the paper's analytical
// M/G/1 wormhole model and the discrete-event wormhole simulator, and both
// return the same Result type.
//
// A scenario is assembled from functional options over closed,
// string-keyed tables of topologies, traffic patterns, spatial patterns
// and arrival processes:
//
//	s, err := noc.NewScenario(
//		noc.Quarc(64),
//		noc.MsgLen(32),
//		noc.Rate(0.001),
//		noc.Alpha(0.05),
//		noc.RandomDests(8, 1),
//	)
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
// Spec is the fully declarative, JSON-able form of a scenario: every
// builtin option has a Spec field, Spec.Scenario compiles it, and the
// canonical encoding's FNV-1a Fingerprint content-addresses its Result —
// the key the noc/service layer (and the quarcd daemon) cache and
// deduplicate evaluations under. ParseSpec is the strict entry point for
// untrusted documents.
package noc
