// Command bench is the repository's source→answer benchmark: it writes
// seeded trace files, drives six named workloads end to end through the
// root magg API with tracing off, re-runs each through a traced staged
// pipeline assembled from the layers' public entry points, checks the
// answers, and prints every metric by name and unit. See README.md.
//
// The driver's form runs one workload and prints one JSON line:
//
//	bench -workload paper-flows -seed 7 -seconds 8 -trace 0
//
// With no -workload it runs all six, untraced then traced, and prints one
// JSON document; -repeat N does that N times and adds medians and
// quartiles; -agree A.json B.json compares two such documents.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	defaultSeed    = 20050614 // SIGMOD 2005
	defaultSeconds = 18

	// Set-up is repeated until setupReps have run or, past minSetupReps,
	// setupBudget is spent: seven of paper-flows' 0.1 s set-ups, three of
	// hostile-card's 1.2 s ones.
	setupReps    = 7
	minSetupReps = 3
	setupBudget  = 2 * time.Second
)

type config struct {
	seed    int64
	seconds float64
	dataDir string
	outDir  string
	short   bool
	verify  bool
	passes  int // >0: exactly this many passes, warm-up included (tests)
}

// report is one workload's outcome.
type report struct {
	Name      string           `json:"name"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	Info      map[string]any   `json:"info,omitempty"`
	Problems  []string         `json:"problems,omitempty"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		cfg      config
		workName = flag.String("workload", "", "run this workload only and print the driver's one-line result")
		trace    = flag.Int("trace", -1, "0 = end-to-end metrics (tracing off), 1 = per-layer metrics (traced staged pipeline); default both")
		agree    = flag.Bool("agree", false, "compare two result documents given as arguments; exit 1 if any end-to-end metric differs by more than its bound")
		repeat   = flag.Int("repeat", 1, "run this many complete sets, order-rotated, and report medians and quartiles")
	)
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "seed of every generator")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "how long each run measures")
	flag.StringVar(&cfg.dataDir, "dir", filepath.Join(".bench_build", "data"), "directory for trace files, stores and checkpoints (emptied of this run's files at exit)")
	flag.StringVar(&cfg.outDir, "out", "", "directory for trace-<workload>.json span dumps (default: none written)")
	flag.BoolVar(&cfg.short, "short", false, "test-sized workloads")
	flag.BoolVar(&cfg.verify, "verify", true, "check a prefix of every workload against the reference")
	flag.IntVar(&cfg.passes, "passes", 0, "run exactly this many passes, the warm-up included, instead of measuring for -seconds")
	flag.Parse()

	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)

	if *agree {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -agree A.json B.json")
			return 2
		}
		return agreeFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments %v\n", flag.Args())
		return 2
	}

	if *workName != "" {
		w, ok := findWorkload(*workName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workName)
			return 2
		}
		rep, err := runWorkload(w, cfg, *trace != 1, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		for _, p := range rep.Problems {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, p)
		}
		metrics := driverMetrics(rep.EndToEnd, endToEndMetrics)
		if *trace == 1 {
			metrics = driverMetrics(rep.PerLayer, driverLayerMetrics())
		}
		line := map[string]any{"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": metrics}
		out, _ := json.Marshal(line)
		fmt.Println(string(out))
		if !rep.Correct {
			return 1
		}
		return 0
	}

	doc, ok := runSets(cfg, *repeat, *trace)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// driverMetrics renders the listed metrics as the value and unit the
// driver reads.
func driverMetrics(m map[string]value, defs []metricDef) map[string]any {
	out := make(map[string]any, len(defs))
	for _, d := range defs {
		out[d.name] = map[string]any{"value": m[d.name].Value, "unit": d.unit}
	}
	return out
}

// runWorkload runs one workload: set-up, the untraced run and its checks,
// the reference check on a prefix, and (traced) the staged pipeline.
func runWorkload(w workload, cfg config, untraced, traced bool) (*report, error) {
	if cfg.short {
		w = w.shrink()
	}
	rep := &report{Name: w.name, Info: map[string]any{}}
	var all checks
	calibBefore := calibrate()

	reps := setupReps
	if cfg.short {
		reps = 1
	}
	p, setups, err := measureSetup(w, cfg.dataDir, cfg.seed, reps)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(p.dir)
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	var res *runResult
	if untraced {
		runtime.GC() // set-up's garbage is not the run's memory
		if res, err = run(p, budget, cfg.passes); err != nil {
			return nil, err
		}
		rep.EndToEnd = endToEnd(w, setupS, res)
		all.add(res.checks)
		rep.Info["timed_passes"] = res.timedPasses
		rep.Info["records_per_pass"] = w.records
		rep.Info["epochs_closed"] = res.epochs
		rep.Info["windows_closed"] = res.windows
		rep.Info["answer_rows"] = res.rows
		rep.Info["shed_records"] = res.dropped
		rep.Info["tail_ms"] = res.tailNs / 1e6
	}
	if traced {
		tr, err := runTraced(p, cfg, budget, calibBefore)
		if err != nil {
			return nil, err
		}
		rep.PerLayer = tr.layer
		all.add(tr.checks)
		for k, v := range tr.info {
			rep.Info[k] = v
		}
	}
	if cfg.verify {
		ref, err := verifyPrefix(p)
		if err != nil {
			return nil, err
		}
		all.add(ref)
	}
	calibAfter := calibrate()
	rep.Info["host_calib_ns_per_iter"] = [2]float64{calibBefore, calibAfter}
	rep.Info["noisy"] = calibAfter > calibBefore*1.05 || calibBefore > calibAfter*1.05
	rep.Attempted, rep.Failed, rep.Problems = all.attempted, all.failed, all.problems
	rep.Correct = rep.Failed == 0
	return rep, nil
}
