// Command maggbench regenerates the paper's tables and figures.
//
// Usage:
//
//	maggbench [-run id[,id...]] [-quick] [-seed n] [-list]
//	          [-cpuprofile path] [-memprofile path]
//
// Without -run it executes every experiment in paper order. Experiment
// ids are fig5..fig15 and table1..table3. -quick shrinks datasets and
// sweeps for a fast smoke run; the default sizes match the paper's setup
// (860k-record trace, 1M-record synthetic dataset).
//
// -cpuprofile / -memprofile write pprof profiles covering the experiments
// the invocation ran. Engine performance is measured by the benchmark in
// bench/ (see docs/PERF.md), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		run     = flag.String("run", "", "comma-separated experiment ids (default: all)")
		quick   = flag.Bool("quick", false, "reduced dataset sizes and sweeps")
		seed    = flag.Int64("seed", 42, "seed for the synthetic datasets")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "maggbench: %v\n", err)
		os.Exit(1)
	}
	fail := func(err error) {
		stopProfiles()
		fmt.Fprintf(os.Stderr, "maggbench: %v\n", err)
		os.Exit(1)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		stopProfiles()
		return
	}

	ids := experiments.IDs()
	if *run != "" {
		ids = strings.Split(*run, ",")
	}
	ctx := experiments.NewContext(*quick)
	ctx.Seed = *seed

	if err := runExperiments(os.Stdout, ids, ctx); err != nil {
		fail(err)
	}
	stopProfiles()
}

// startProfiles starts CPU profiling and arranges for a heap profile at
// stop time, per the -cpuprofile/-memprofile flags. The returned stop
// function is safe to call once on every exit path.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %v", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			cpuFile = nil
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "maggbench: heap profile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "maggbench: heap profile: %v\n", err)
			}
			memPath = ""
		}
	}, nil
}

// runExperiments executes the listed experiments, printing each table;
// it returns the first error after attempting every experiment.
func runExperiments(w io.Writer, ids []string, ctx *experiments.Context) error {
	var firstErr error
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		tab, err := experiments.Run(id, ctx)
		if err == nil {
			err = tab.Fprint(w)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %v", id, err)
			}
			continue
		}
		fmt.Fprintf(w, "(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return firstErr
}
