package svc

import (
	"sync"
	"testing"

	"sdsm/internal/harness"
	"sdsm/internal/leaktest"
	"sdsm/internal/wire"
)

// TestCrossJobIsolation interleaves many concurrent jobs of different
// shapes — different apps, rank counts, protocol modes — over one warm
// pool and demands every result match its solo run bit for bit. The
// per-job canary guard words in the arenas turn any cross-job memory
// bleed into a loud job failure (harness audits them after every run),
// and the checksum/virtual-time comparison catches logical bleed the
// guards cannot see. Run under -race in CI, this is also the service
// layer's race workout: slots are handed between concurrent jobs
// constantly.
func TestCrossJobIsolation(t *testing.T) {
	leaktest.Check(t)
	mix := []wire.JobSpec{
		{App: "jacobi", Set: "small", Procs: 4, Verify: true},
		{App: "spmv", Set: "small", Procs: 2, Verify: true, Scale: true},
		{App: "tsp", Set: "small", Procs: 3, Verify: true},
		{App: "jacobi", Set: "bound", Procs: 2, Verify: true, Adapt: true},
		{App: "gauss", Set: "small", Procs: 1, Verify: true},
	}
	// Solo references, computed on throwaway machines.
	solo := make([]*harness.Result, len(mix))
	for i, spec := range mix {
		cfg, err := JobConfig(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := harness.Run(cfg)
		if err != nil {
			t.Fatalf("%s/%s solo: %v", spec.App, spec.Set, err)
		}
		solo[i] = r
	}

	_, cl := startService(t, Config{Slots: 8, QueueCap: 128})
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan string, rounds*len(mix))
	for r := 0; r < rounds; r++ {
		for i, spec := range mix {
			wg.Add(1)
			go func(i int, spec wire.JobSpec) {
				defer wg.Done()
				res, err := cl.Do(spec)
				if err != nil {
					errs <- spec.App + ": " + err.Error()
					return
				}
				if res.Err != "" {
					errs <- spec.App + ": " + res.Err
					return
				}
				if res.Checksum != solo[i].Checksum {
					errs <- spec.App + ": interleaved checksum differs from solo run"
				}
				if res.VirtualNS != int64(solo[i].Time) {
					errs <- spec.App + ": interleaved virtual time differs from solo run"
				}
			}(i, spec)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
