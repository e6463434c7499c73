package fleet

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"
)

// jitterSource is a locked, seeded PCG stream: retries spread out like
// random jitter, but a given dispatcher replays the same sequence run
// to run, keeping fault-injection tests deterministic.
type jitterSource struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newJitterSource(seed uint64) *jitterSource {
	return &jitterSource{rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))}
}

func (j *jitterSource) float64() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rng.Float64()
}

// backoff is the pause before attempt+1: capped exponential growth from
// BaseBackoff, scaled into [0.5, 1.0) of the step so synchronized
// retries decorrelate.
func (d *Dispatcher) backoff(attempt int) time.Duration {
	b := d.cfg.BaseBackoff
	for i := 1; i < attempt && b < d.cfg.MaxBackoff; i++ {
		b *= 2
	}
	if b > d.cfg.MaxBackoff {
		b = d.cfg.MaxBackoff
	}
	return time.Duration(float64(b) * (0.5 + float64(0.5*d.jitter.float64())))
}

// sleepCtx waits out d or the context, whichever ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
