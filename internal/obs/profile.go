package obs

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles begins a CPU profile into cpuPath and returns the function
// that ends it and writes a heap profile to memPath — the host-time view
// the commands offer beside the virtual-time trace. An empty path skips
// that profile; with both empty nothing happens.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			return nil, errors.Join(err, cpu.Close())
		}
	}
	return func() (err error) {
		if cpu != nil {
			pprof.StopCPUProfile()
			err = cpu.Close()
		}
		if memPath == "" || err != nil {
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
