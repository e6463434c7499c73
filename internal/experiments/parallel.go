package experiments

import (
	"fmt"
	"runtime"
	"sync"
)

// RunPanels evaluates several figure panels concurrently using a bounded
// worker pool. Each panel is still internally sequential (its points share
// nothing), so results are bitwise identical to sequential runs — the
// simulator and model are deterministic per seed and panels do not share
// mutable state. workers <= 0 selects GOMAXPROCS.
//
// The returned slice is ordered like the input regardless of completion
// order. The first error encountered is returned after all workers stop.
func RunPanels(panels []Panel, sim SimConfig, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(panels) {
		workers = len(panels)
	}
	if len(panels) == 0 {
		return nil, nil
	}

	results := make([]Result, len(panels))
	errs := make([]error, len(panels))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i], errs[i] = RunPanel(panels[i], sim)
			}
		}()
	}
	for i := range panels {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: panel %s: %w", panels[i].ID, err)
		}
	}
	return results, nil
}
