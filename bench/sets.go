package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"text/tabwriter"

	"repro/internal/hashtab"
)

// document is what the benchmark prints when run without -workload: every
// metric of every workload by name and unit, the host it was measured on,
// and no claim — this benchmark defines the baseline, it does not move it.
type document struct {
	Benchmark string                        `json:"benchmark"`
	Seed      int64                         `json:"seed"`
	Seconds   float64                       `json:"seconds"`
	Host      hostInfo                      `json:"host"`
	Workloads []*report                     `json:"workloads"`      // the last set
	Sets      [][]*report                   `json:"sets,omitempty"` // every set, with -repeat
	Summary   map[string]map[string]summary `json:"summary,omitempty"`
	Claim     *string                       `json:"claim"`
}

type hostInfo struct {
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Kernel     string `json:"probe_kernel"`
}

// summary is one end-to-end metric of one workload over the sets.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3 − q1) / median
	Runs   int     `json:"runs"`
	Unit   string  `json:"unit"`
}

// runSets runs `repeat` complete sets of all workloads. Set k starts at
// workload k, so no workload always runs first or last.
func runSets(cfg config, repeat, trace int) (*document, bool) {
	doc := &document{
		Benchmark: "repro/bench", Seed: cfg.seed, Seconds: cfg.seconds,
		Host: hostInfo{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Kernel: hashtab.KernelName()},
	}
	ok := true
	all := allWorkloads()
	for k := 0; k < max(repeat, 1); k++ {
		set := make([]*report, len(all))
		for j := range all {
			i := (j + k) % len(all)
			fmt.Fprintf(os.Stderr, "bench: set %d: %s\n", k+1, all[i].name)
			rep, err := runWorkload(all[i], cfg, trace != 1, trace != 0)
			if err != nil {
				rep = &report{Name: all[i].name, Problems: []string{err.Error()}}
			}
			for _, p := range rep.Problems {
				fmt.Fprintf(os.Stderr, "bench: %s: %s\n", rep.Name, p)
			}
			for _, d := range perLayerMetrics {
				if d.on != nil && !d.on(all[i]) {
					delete(rep.PerLayer, d.name) // the workload has no such layer
				}
			}
			ok = ok && rep.Correct
			set[i] = rep
		}
		doc.Sets = append(doc.Sets, set)
		doc.Workloads = set
	}
	if repeat > 1 {
		doc.Summary = map[string]map[string]summary{}
		for i, w := range all {
			doc.Summary[w.name] = map[string]summary{}
			for _, def := range endToEndMetrics {
				var xs []float64
				for _, set := range doc.Sets {
					if v, ok := set[i].EndToEnd[def.name]; ok {
						xs = append(xs, v.Value)
					}
				}
				if len(xs) == 0 {
					continue
				}
				med := median(xs)
				q1, q3 := quantile(xs, 0.25), quantile(xs, 0.75)
				doc.Summary[w.name][def.name] = summary{Median: med, Q1: q1, Q3: q3,
					Spread: (q3 - q1) / med, Runs: len(xs), Unit: def.unit}
			}
		}
	} else {
		doc.Sets = nil
	}
	return doc, ok
}

// exactMetrics are counts made by the program: for one seed they must
// repeat bit for bit.
var exactMetrics = map[string]bool{"cost_per_record": true, "admitted_fraction": true}

// endToEndOf returns a document's value of one workload's end-to-end
// metric: the median over its sets when it was made with -repeat, else
// the one run's value.
func (d *document) endToEndOf(r *report, metric string) (float64, bool) {
	if s, ok := d.Summary[r.Name][metric]; ok {
		return s.Median, true
	}
	v, ok := r.EndToEnd[metric]
	return v.Value, ok
}

// agreeFiles compares two result documents: per workload and end-to-end
// metric it prints both values (medians, for documents made with
// -repeat), the relative difference and the bound, and returns 1 if any
// pair differs by more than the bound (or, for the exact counts of one
// seed, at all).
func agreeFiles(pathA, pathB string, out io.Writer) int {
	load := func(path string) (*document, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var d document
		if err := json.Unmarshal(data, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &d, nil
	}
	a, err := load(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := load(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	byName := map[string]*report{}
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tdiff\tbound\t")
	disagree := 0
	for _, ra := range a.Workloads {
		rb := byName[ra.Name]
		if rb == nil {
			fmt.Fprintf(tw, "%s\t(missing in B)\t\t\t\t\tDISAGREE\n", ra.Name)
			disagree++
			continue
		}
		for _, def := range endToEndMetrics {
			va, okA := a.endToEndOf(ra, def.name)
			vb, okB := b.endToEndOf(rb, def.name)
			if !okA || !okB {
				continue
			}
			diff := math.Abs(vb-va) / math.Abs(va)
			bound, verdict := def.bound, ""
			if exactMetrics[def.name] && a.Seed == b.Seed {
				bound = 0
			}
			if diff > bound {
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.4f\t%.2f\t%s\n", ra.Name, def.name, va, vb, diff, bound, verdict)
		}
	}
	tw.Flush()
	if disagree > 0 {
		fmt.Fprintf(out, "%d pairs differ by more than their bound\n", disagree)
		return 1
	}
	fmt.Fprintln(out, "all pairs agree within their bounds")
	return 0
}
