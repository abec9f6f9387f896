package harness

import (
	"sync"
)

// The experiment scheduler: every Config run is a self-contained machine
// (its own host, network, and DSM state), so independent runs parallelize
// trivially across OS threads even when each run uses the deterministic
// sim backend internally. Virtual-time results are identical to a
// sequential sweep; only wall-clock time changes.

// parallelDo runs jobs 0..n-1 on a pool of workers goroutines and returns
// the first error. workers <= 1 runs the jobs inline, in order.
func parallelDo(n, workers int, job func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg     sync.WaitGroup
		errMu  sync.Mutex
		first  error
		failed = make(chan struct{})
	)
	fail := func(err error) {
		errMu.Lock()
		defer errMu.Unlock()
		if first == nil {
			first = err
			close(failed)
		}
	}
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := job(i); err != nil {
					fail(err)
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		// Stop feeding new jobs once one has failed; in-flight jobs
		// (self-contained simulations) drain on their own.
		select {
		case <-failed:
			break dispatch
		case jobs <- i:
		}
	}
	close(jobs)
	wg.Wait()
	errMu.Lock()
	defer errMu.Unlock()
	return first
}
