package obs

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// StartProfiles begins a CPU profile into cpuPath and a runtime execution
// trace into tracePath, and returns the function that ends both and writes
// a heap profile to memPath — the host-time view the commands offer beside
// the virtual-time trace. An empty path skips that output; with all three
// empty nothing happens.
func StartProfiles(cpuPath, memPath, tracePath string) (stop func() error, err error) {
	var cpu, tr *os.File
	end := func() (err error) { // ends what has been started so far
		if tr != nil {
			trace.Stop()
			err = tr.Close()
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			err = errors.Join(err, cpu.Close())
		}
		return err
	}
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			return nil, errors.Join(err, cpu.Close())
		}
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, errors.Join(err, end())
		}
		if err = trace.Start(f); err != nil {
			return nil, errors.Join(err, f.Close(), end())
		}
		tr = f
	}
	return func() error {
		if err := end(); err != nil || memPath == "" {
			return err
		}
		mem, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // heap profiles lag a collection behind
		return errors.Join(pprof.WriteHeapProfile(mem), mem.Close())
	}, nil
}
