// Package profiling is the one definition of the -pprof-cpu / -pprof-heap
// flags: Flags registers them on a CLI's flag set and returns the start and
// stop that honour them. Profiles measure the simulator itself (real CPU
// time and heap, not simulated time); they are how the "tracing off costs
// nothing" claim is checked outside the benchmarks.
package profiling

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags registers -pprof-cpu and -pprof-heap on fs. Call start once fs is
// parsed: it begins the CPU profile. stop ends it and writes the heap
// profile; it does its work once, on the first call after start, so a
// command can call it on the success path and again from an os.Exit error
// path (which skips defers) without stopping twice.
func Flags(fs *flag.FlagSet) (start, stop func() error) {
	cpu := fs.String("pprof-cpu", "", "write a CPU profile of the simulator to this file")
	heap := fs.String("pprof-heap", "", "write a heap profile to this file at exit")
	stopCPU := func() error { return nil }
	started := false
	start = func() error {
		started = true
		if *cpu == "" {
			return nil
		}
		s, err := startCPU(*cpu)
		if err == nil {
			stopCPU = s
		}
		return err
	}
	stop = func() error {
		if !started {
			return nil
		}
		started = false
		err := stopCPU()
		if *heap != "" && err == nil {
			err = writeHeap(*heap)
		}
		return err
	}
	return start, stop
}

// startCPU starts a CPU profile written to path and returns the function
// that stops profiling and closes the file.
func startCPU(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("profiling: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("profiling: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("profiling: %w", err)
		}
		return nil
	}, nil
}

// writeHeap writes a heap profile to path. It forces a GC first so the
// profile reflects live objects, not garbage awaiting collection.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	runtime.GC()
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("profiling: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	return nil
}
