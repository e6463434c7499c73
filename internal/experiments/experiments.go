// Package experiments keeps the hand-wired cross-checks between the
// analytical model and the simulator: its tests drive internal/core and
// internal/wormhole below the public API. The paper's evaluation itself —
// figure panels, ablations, sweeps — is package noc.
package experiments

import (
	"quarc/internal/core"
	"quarc/internal/routing"
	"quarc/internal/traffic"
)

// FindSaturationRate bisects for the highest generation rate at which the
// analytical model of a paper-style configuration (poisson arrivals,
// uniform unicast destinations, default formulas) is stable, within
// relative tolerance tol.
func FindSaturationRate(rt routing.Router, msgLen int, alpha float64, set routing.MulticastSet, tol float64) (float64, error) {
	m, err := core.NewModel(core.Input{Router: rt, Spec: traffic.Spec{MulticastFrac: alpha, Set: set}, MsgLen: msgLen})
	if err != nil {
		return 0, err
	}
	return m.SaturationRate(tol)
}
