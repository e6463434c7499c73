package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// fitSensitivity measures how strongly a workload's operations and its
// set-up follow the calibrator: it alternates one set-up with twenty
// operations for the given time, takes each such window's median wall
// time and mean calibrator time, and regresses log(wall) on log(calib).
// The slopes are the sensitivity constants frozen in workloads(); the
// residual spreads say how steady the calibrated figures would have been
// over this very recording. It needs a machine whose speed moves while
// it runs (a quiet one fits noise), so fit a few times and round.
func fitSensitivity(w entry, seed uint64, seconds float64) error {
	if err := w.inputs(seed); err != nil {
		return err
	}
	defer w.close()
	cal := newCalibrator()
	var opCal, opRaw, setCal, setRaw []float64
	next := 0
	for t0 := time.Now(); time.Since(t0).Seconds() < seconds; {
		w.close()
		runtime.GC()
		before := (cal.measure() + cal.measure()) / 2
		start := time.Now()
		if err := w.setup(); err != nil {
			return err
		}
		raw := time.Since(start).Seconds()
		after := cal.measure()
		setCal, setRaw = append(setCal, (before+(after+cal.measure())/2)/2), append(setRaw, raw)

		var cs, rs []float64
		before = after
		for k := 0; k < 20; k++ {
			w.prepare(next)
			start := time.Now()
			if err := w.op(next, nil, -1); err != nil {
				return err
			}
			raw := time.Since(start).Seconds()
			runtime.GC()
			after := cal.measure()
			cs, rs = append(cs, (before+after)/2), append(rs, raw)
			before = after
			next++
		}
		opCal, opRaw = append(opCal, median(cs)), append(opRaw, median(rs))
	}
	for _, f := range []struct {
		what     string
		cal, raw []float64
	}{{"op", opCal, opRaw}, {"setup", setCal, setRaw}} {
		beta := slope(f.cal, f.raw)
		fmt.Printf("%-10s %-5s windows %3d  sensitivity %.2f  spread: raw %.1f%%  /calib %.1f%%  /calib^%.2f %.1f%%\n",
			w.name(), f.what, len(f.cal), beta, 100*residual(f.cal, f.raw, 0), 100*residual(f.cal, f.raw, 1), beta, 100*residual(f.cal, f.raw, beta))
	}
	return nil
}

// slope is the least-squares slope of log y on log x.
func slope(x, y []float64) float64 {
	var mx, my float64
	for i := range x {
		mx += math.Log(x[i]) / float64(len(x))
		my += math.Log(y[i]) / float64(len(y))
	}
	var sxy, sxx float64
	for i := range x {
		dx := math.Log(x[i]) - mx
		sxy += dx * (math.Log(y[i]) - my)
		sxx += dx * dx
	}
	return sxy / sxx
}

// residual is the quartile spread of y / x^beta.
func residual(x, y []float64, beta float64) float64 {
	r := make([]float64, len(x))
	for i := range x {
		r[i] = y[i] / math.Pow(x[i], beta)
	}
	_, _, _, s := quartileSpread(r)
	return s
}
