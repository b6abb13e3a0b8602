package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles wires the standard pprof profiles into a CLI: cpuPath
// starts a CPU profile immediately, memPath records a heap profile when
// the returned stop function runs. Empty paths disable the respective
// profile; stop is always safe to call once.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		cpu, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("obs: start cpu profile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("obs: write heap profile: %w", err)
			}
		}
		return nil
	}, nil
}
