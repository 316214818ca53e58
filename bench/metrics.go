package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions; bench_test.go keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by

	// per-layer only; see perLayerMetrics
	on      func(workload) bool // workloads that exercise the layer; nil = all
	zeroOK  bool                // may read 0 or below where it is defined
	docOnly bool
}

// The end-to-end metrics, measured with tracing off. Each is defined on
// every workload and is never 0.
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "records_per_s", unit: "records/s", better: "higher", bound: 0.25},
	{name: "emit_latency_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "emit_latency_ms_p95", unit: "ms", better: "lower", bound: 0.25},
	{name: "cost_per_record", unit: "ops/record", better: "lower", bound: 0.05},
	{name: "admitted_fraction", unit: "ratio", better: "higher", bound: 0.05},
	{name: "heap_peak_mb", unit: "MiB", better: "lower", bound: 0.20},
}

// value is one measured metric.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // for medians and percentiles
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between order
// statistics (the same rule for every caller, so medians of an even count
// are the mean of the middle pair).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quietLatencies returns the emission-latency samples taken during the
// quieter half of the timed passes. Every pass replays the same records,
// so a pass that took longer than its siblings was disturbed by something
// other than the workload — on this host a neighbour, for seconds at a
// time — and the epochs closed in it say more about the neighbour than
// about the program: with them in, p95 triples under a bursty neighbour;
// without them it moves by a tenth. With too few samples left, all count.
func quietLatencies(r *runResult) []float64 {
	limit := median(r.passNs)
	var quiet []float64
	for i, ms := range r.latencyMs {
		if p := r.latencyPass[i]; p >= 0 && p < len(r.passNs) && r.passNs[p] <= limit {
			quiet = append(quiet, ms)
		}
	}
	if len(quiet) < 20 {
		return r.latencyMs
	}
	return quiet
}

// quietShare is the quantile quietPassNs takes of each chunk's times.
const quietShare = 0.10

// quietPassNs is the wall time of one pass on an undisturbed host, put
// together from the run's own passes. Every pass replays the same records,
// so chunk j of one pass is the same work as chunk j of any other, and what
// differs between them is the host: a neighbour that, for seconds or
// minutes at a time, slows this VM by anything up to 3x. The time of a
// whole pass, at any quantile over the passes, follows the neighbour (the
// lower-quartile pass moved by 11-12%, quartile distance over median,
// between 18 s stretches of one process); the sum over the chunks of each
// chunk's lower-decile time moved by 3-7% over the same stretches, because
// each chunk only needs a tenth of its samples to have been left alone. Work that comes round less often
// than every tenth pass at a given position (a collection, say) is not in
// it; rt.gc_cycles and heap_peak_mb carry that. The time after the last
// record is shared out over the passes.
func quietPassNs(r *runResult) float64 {
	total := r.tailNs / float64(len(r.chunkNs))
	col := make([]float64, len(r.chunkNs))
	for j := range r.chunkNs[0] {
		for k, pass := range r.chunkNs {
			col[k] = pass[j]
		}
		total += quantile(col, quietShare)
	}
	return total
}

// endToEnd derives the end-to-end metrics of one untraced run.
func endToEnd(w workload, setupS []float64, r *runResult) map[string]value {
	m := map[string]value{}
	m["setup_s"] = value{Value: median(setupS), Unit: "s", Samples: len(setupS)}
	if len(r.chunkNs) > 0 {
		m["records_per_s"] = value{Value: float64(w.records) / (quietPassNs(r) / 1e9), Unit: "records/s", Samples: len(r.chunkNs)}
	}
	lat := quietLatencies(r)
	m["emit_latency_ms_p50"] = value{Value: median(lat), Unit: "ms", Samples: len(lat)}
	m["emit_latency_ms_p95"] = value{Value: quantile(lat, 0.95), Unit: "ms", Samples: len(lat)}
	m["cost_per_record"] = value{Value: r.ops.PerRecordCost(1, 50), Unit: "ops/record"}
	if r.exactOffered > 0 {
		m["admitted_fraction"] = value{Value: float64(r.exactAdmitted) / float64(r.exactOffered), Unit: "ratio"}
	}
	// The heap's high-water mark as the 95th percentile of the samples:
	// the top of the collector's saw-tooth, without the few samples that
	// catch a collection running late, which differ from run to run.
	m["heap_peak_mb"] = value{Value: quantile(r.heapBytes, 0.95) / (1 << 20), Unit: "MiB", Samples: len(r.heapBytes)}
	return m
}

var calibSink uint64

// calibrate times a fixed integer-hash loop: the host's speed just now,
// independent of the program under test. It takes the fastest of a few
// short loops so that one descheduling does not read as a slow host.
func calibrate() float64 {
	const iters = 1 << 22
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		var h uint64
		for i := uint64(0); i < iters; i++ {
			h = mix(h, i)
		}
		calibSink += h
		if ns := float64(time.Since(start)) / iters; rep == 0 || ns < best {
			best = ns
		}
	}
	return best
}
