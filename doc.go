// Package quarc reproduces "A Performance Model of Multicast Communication
// in Wormhole-Routed Networks on-Chip" (Moadeli & Vanderbauwhede, IPDPS
// 2009): an analytical model that predicts the average multicast latency of
// wormhole-routed networks with asynchronous multi-port routers, validated
// on the Quarc NoC against a discrete-event simulator.
//
// The public entry point is the noc package: a declarative Scenario built
// from functional options drives both engines through a common Evaluator
// interface, and closed, string-keyed tables of topologies and traffic
// patterns keep scenarios declarative:
//
//	s, _ := noc.NewScenario(noc.Quarc(64), noc.MsgLen(32),
//		noc.Rate(0.001), noc.Alpha(0.05), noc.RandomDests(8, 1))
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
// Command-line entry points are cmd/quarcmodel, cmd/quarcsim, cmd/figures
// and cmd/ablations; the Example functions of noc and noc/service are the
// runnable walk-throughs, checked by go test. All of them consume only the
// noc package. See EXPERIMENTS.md for recorded
// paper-vs-measured results, DESIGN.md for the formula notes and
// benchmark/ for the repository's benchmark.
package quarc
