// Package quarc reproduces "A Performance Model of Multicast Communication
// in Wormhole-Routed Networks on-Chip" (Moadeli & Vanderbauwhede, IPDPS
// 2009): an analytical model that predicts the average multicast latency of
// wormhole-routed networks with asynchronous multi-port routers, validated
// on the Quarc NoC against a discrete-event simulator.
//
// The public entry point is the noc package: a declarative Spec, whose
// names index closed, string-keyed tables of topologies and traffic
// patterns, resolves into a Scenario that drives both engines through a
// common Evaluator interface:
//
//	s, _ := noc.Spec{Topology: "quarc", N: 64, MsgLen: 32, Rate: 0.001,
//		Alpha: 0.05, Pattern: "random", Dests: 8, SetSeed: 1}.Scenario()
//	pred, _ := noc.Model{}.Evaluate(s)
//	meas, _ := noc.Simulator{}.Evaluate(s)
//
// The engines live under internal/:
//
//   - internal/core — the analytical model (M/G/1 channel queues, wormhole
//     service-time fixed point, max-of-exponentials multicast combination)
//   - internal/topology, internal/routing — Quarc, Spidergon, mesh, torus
//     and hypercube networks with their deterministic unicast and BRCP
//     multicast routing
//   - internal/wormhole — the worm-level wormhole network simulator that
//     stands in for the paper's OMNET++ model
//   - internal/traffic, internal/stats — Poisson workloads and estimators
//   - internal/experiments — hand-wired model-vs-simulator cross-checks
//     (tests below the public API)
//
// The paper's evaluation — the panels of Figures 6 and 7 and the ablation
// studies — is part of noc: a panel is a Scenario and its graph a Sweep.
// Command-line entry points are cmd/quarcsim, cmd/figures and
// cmd/ablations; the Example functions of noc and noc/service are the
// runnable walk-throughs, checked by go test. All of them consume only the
// noc package. See EXPERIMENTS.md for recorded
// paper-vs-measured results, DESIGN.md for the formula notes and
// benchmark/ for the repository's benchmark.
package quarc
