package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	magg "repro"
	"repro/internal/gen"
	"repro/internal/stream"
)

// A workload is one named set of inputs and engine options. The names are
// fixed: later issues cite them, and BENCHMARK.json lists them.
//
// Every workload replays one seeded trace file for whole passes, shifting
// the timestamp column by pass × ticks so stream time keeps advancing and
// epochs keep closing. Sizes are per pass; the run length is set by
// -seconds, not by the trace.
type workload struct {
	name string
	why  string // one sentence for BENCHMARK.json

	trace    string // generator: "flows", "uniform" or "zipf"
	universe int    // distinct groups to draw from ("flows": the paper's 2837)
	records  int    // records per pass
	ticks    uint32 // stream time units per pass; a multiple of epochLen
	epochLen uint32 // time units per epoch

	whereBelow uint32 // WHERE A < whereBelow on every query; 0 = no WHERE
	windowed   bool   // "window 4 slide 2" plus count_distinct(D)
	shards     int    // Options.Shards
	durable    bool   // Options.Store on a real directory and CheckpointPath
	shedShare  float64
	parallel   bool // ShardedLFTA.RunParallel instead of Engine.Run

	verifyRecords int // prefix checked against the reference
}

// overloadBudgetShare is the share of the unshed per-tick cost (flushes
// included) given as Budget on overload-shed. Admission charges only the
// work done between flushes, which is a small part of that cost on a
// clustered trace, so a share of 0.116 is what sheds ≈40%.
const overloadBudgetShare = 0.116

const (
	memoryUnits   = 40000 // the paper's M
	sampleRecords = 100000

	// sketchPrecision is the HLL register exponent of count_distinct on
	// product-full: 1 KiB and ≈3% standard error per group and pane. At
	// the default (12: 4 KiB) the pane sketches make every checkpoint 7 MB
	// and the checkpoint write half of the workload's time, which hides
	// the other features and makes the timings follow the disk.
	sketchPrecision = 10
)

var queryNames = []string{"AB", "BC", "BD", "CD"}

func allWorkloads() []workload {
	return []workload{
		{
			name:  "paper-flows",
			why:   "the paper's setting: clustered flows over in-cache tables, so probe and phantom cascade dominate and decode, filter and store changes should not show",
			trace: "flows", records: 1 << 20, ticks: 1024, epochLen: 256,
			verifyRecords: 300000,
		},
		{
			name:  "hostile-card",
			why:   "uniform draws from a 1M-group universe, about 125x the table slots, so eviction transfer, HFTA merge, row read-out and the epoch flush dominate and probes do little useful work",
			trace: "uniform", universe: 1000000, records: 1 << 17, ticks: 512, epochLen: 32,
			verifyRecords: 100000,
		},
		{
			name:  "selective-where",
			why:   "Zipf(1.2) groups with a WHERE on A passing about 5%, so source decode and the compiled filter dominate and a probe or merge change must read no change",
			trace: "zipf", universe: 50000, records: 1 << 20, ticks: 1024, epochLen: 256, whereBelow: 75,
			verifyRecords: 200000,
		},
		{
			name:  "product-full",
			why:   "every product feature at once: 50% WHERE, 2 shards, window 4 slide 2, count_distinct, durable store and per-epoch checkpoint, so a gain bought at their cost shows as a loss",
			trace: "flows", records: 1 << 17, ticks: 512, epochLen: 16, whereBelow: 750,
			windowed: true, shards: 2, durable: true,
			verifyRecords: 65536,
		},
		{
			name:  "overload-shed",
			why:   "Budget set to shed about 40% with the uniform policy on 2 shards: the only row-by-row admission path, where batch-granular admission can show and shedding more is a regression",
			trace: "flows", records: 1 << 20, ticks: 1024, epochLen: 64,
			shards: 2, shedShare: overloadBudgetShare,
			verifyRecords: 200000,
		},
		{
			name:  "pipeline-par",
			why:   "the only multi-goroutine path, router to SPSC rings to 2 shard workers, which the many-core item compares with the sequential 2-shard engine before keeping one design",
			trace: "flows", records: 1 << 20, ticks: 1024, epochLen: 256,
			shards: 2, parallel: true,
			verifyRecords: 300000,
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shrink returns the workload at test size: 1/16 of the records per pass
// (and of the hostile universe, which otherwise takes a second to draw)
// with the same number of epochs per pass.
func (w workload) shrink() workload {
	w.records /= 16
	if w.trace == "uniform" {
		w.universe /= 16
	}
	w.verifyRecords = w.records / 4
	return w
}

func (w workload) epochsPerPass() int { return int(w.ticks / w.epochLen) }

func (w workload) queries() []magg.Relation {
	out := make([]magg.Relation, len(queryNames))
	for i, q := range queryNames {
		out[i] = magg.MustRelation(q)
	}
	return out
}

// sqls renders the workload's four queries in the engine's GSQL dialect.
func (w workload) sqls() []string {
	out := make([]string, len(queryNames))
	for i, q := range queryNames {
		cols := strings.Join(strings.Split(q, ""), ", ")
		var b strings.Builder
		fmt.Fprintf(&b, "select %s, count(*) as cnt", cols)
		if w.windowed {
			b.WriteString(", count_distinct(D) as uniq")
		}
		b.WriteString(" from R")
		if w.whereBelow > 0 {
			fmt.Fprintf(&b, " where A < %d", w.whereBelow)
		}
		fmt.Fprintf(&b, " group by %s, time/%d", cols, w.epochLen)
		if w.windowed {
			b.WriteString(" window 4 slide 2")
		}
		out[i] = b.String()
	}
	return out
}

// generate draws the workload's trace from the seed. Nothing else in the
// benchmark is random: the engine sees only the file written from this.
func (w workload) generate(seed int64) ([]magg.Record, error) {
	schema := stream.MustSchema(4)
	switch w.trace {
	case "flows":
		u, err := gen.PaperUniverse(seed)
		if err != nil {
			return nil, err
		}
		ft, err := gen.Flows(rand.New(rand.NewSource(seed+1)), u, gen.FlowConfig{
			NumRecords: w.records, Duration: w.ticks, MeanFlowLen: 30, Concurrency: 64,
		})
		if err != nil {
			return nil, err
		}
		return ft.Records, nil
	case "uniform":
		rng := rand.New(rand.NewSource(seed))
		u, err := gen.UniformUniverse(rng, schema, w.universe, 0)
		if err != nil {
			return nil, err
		}
		return gen.Uniform(rng, u, w.records, w.ticks), nil
	case "zipf":
		rng := rand.New(rand.NewSource(seed))
		u, err := gen.UniformUniverse(rng, schema, w.universe, 1500)
		if err != nil {
			return nil, err
		}
		return zipfStratified(rng, u.Tuples, w), nil
	}
	return nil, fmt.Errorf("unknown trace generator %q", w.trace)
}

// zipfStratified draws Zipf(1.2) records over the tuples, giving the
// popularity ranks ≡ 4 (mod 20) to tuples that pass the WHERE and the rest
// to tuples that do not. With a random rank order (gen.Zipf) the few
// heaviest groups decide the pass share, which then swings between 1% and
// 25% from seed to seed; spread over the ranks like this it is ≈5.2% for
// every seed, while the tuples, their order and the draws still all come
// from the seed.
func zipfStratified(rng *rand.Rand, tuples [][]uint32, w workload) []magg.Record {
	var pass, fail [][]uint32
	for _, t := range tuples {
		if t[0] < w.whereBelow {
			pass = append(pass, t)
		} else {
			fail = append(fail, t)
		}
	}
	byRank := make([][]uint32, 0, len(tuples))
	for r := 0; len(byRank) < len(tuples); r++ {
		if (r%20 == 4 || len(fail) == 0) && len(pass) > 0 {
			byRank, pass = append(byRank, pass[0]), pass[1:]
		} else {
			byRank, fail = append(byRank, fail[0]), fail[1:]
		}
	}
	z := rand.NewZipf(rng, 1.2, 1, uint64(len(byRank)-1))
	recs := make([]magg.Record, w.records)
	for i := range recs {
		recs[i] = magg.Record{Attrs: byRank[z.Uint64()],
			Time: uint32(uint64(i) * uint64(w.ticks) / uint64(w.records))}
	}
	return recs
}

// prepared is everything set-up produces before the first record.
type prepared struct {
	w         workload
	dir       string // this run's private data directory
	tracePath string
	passing   int // records per pass that satisfy the WHERE
	groups    magg.GroupCounts
	budget    float64 // Options.Budget; 0 unless shedShare > 0
	seed      int64
}

// readPrefix reads the first n records back from the trace file, which is
// how every consumer in the benchmark (planner sample, reference, budget
// calibration) sees the input.
func readPrefix(path string, n int) ([]magg.Record, error) {
	src, err := magg.OpenTraceSource(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	recs := make([]magg.Record, 0, n)
	for len(recs) < n {
		r, ok := src.Next()
		if !ok {
			break
		}
		recs = append(recs, r)
	}
	return recs, src.Err()
}

// setUp generates the trace file, measures the planner's group counts on
// a sample read back from it and, for a shedding workload, calibrates the
// budget. It is the part of setup_s that does not build the engine.
func setUp(w workload, dir string, seed int64) (*prepared, error) {
	recs, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &prepared{w: w, dir: dir, seed: seed,
		tracePath: filepath.Join(dir, "trace.magt")}
	if err := magg.WriteTraceFile(p.tracePath, stream.MustSchema(4), recs); err != nil {
		return nil, err
	}
	for i := range recs {
		if w.whereBelow == 0 || recs[i].Attrs[0] < w.whereBelow {
			p.passing++
		}
	}
	sample, err := readPrefix(p.tracePath, min(sampleRecords, w.records))
	if err != nil {
		return nil, err
	}
	if p.groups, err = magg.EstimateGroups(sample, w.queries()); err != nil {
		return nil, err
	}
	if w.shedShare > 0 {
		// Unshed cost of the sample per stream time unit, scaled down.
		opts := p.options()
		opts.Budget, opts.Shed = 0, nil
		eng, err := magg.NewEngine(w.sqls(), p.groups, opts)
		if err != nil {
			return nil, err
		}
		if err := eng.Run(magg.NewSliceSource(sample)); err != nil {
			return nil, err
		}
		perRecord := eng.Stats().Ops.PerRecordCost(1, 50)
		p.budget = w.shedShare * perRecord * float64(w.records) / float64(w.ticks)
	}
	return p, nil
}

// options are the engine options common to every run of the workload;
// callers add the store, the checkpoint path and the handlers.
func (p *prepared) options() magg.Options {
	o := magg.Options{M: memoryUnits, Seed: uint64(p.seed), Shards: p.w.shards, WindowSketchPrecision: sketchPrecision}
	if p.budget > 0 {
		o.Budget = p.budget
		o.Shed = magg.NewUniformShed(0, uint64(p.seed))
	}
	return o
}

// measureSetup runs the whole set-up up to reps times (fewer, but at least
// minSetupReps, once setupBudget is spent), each into a fresh directory,
// and returns the last preparation plus every duration. One
// set-up is: generate and write the trace, sample and count groups,
// calibrate the budget, open the store, and build the engine (planner).
func measureSetup(w workload, dataDir string, seed int64, reps int) (*prepared, []time.Duration, error) {
	var (
		p   *prepared
		dur []time.Duration
	)
	begin := time.Now()
	for i := 0; i < reps && (i < minSetupReps || time.Since(begin) < setupBudget); i++ {
		if p != nil {
			os.RemoveAll(p.dir)
		}
		dir := filepath.Join(dataDir, fmt.Sprintf("%s-%d-%d", w.name, seed, i))
		os.RemoveAll(dir)
		start := time.Now()
		var err error
		if p, err = setUp(w, dir, seed); err != nil {
			return nil, nil, err
		}
		opts := p.options()
		var st *magg.EpochStore
		if w.durable {
			if st, err = magg.OpenEpochStore(filepath.Join(dir, "setup-store"), magg.EpochStoreOptions{}); err != nil {
				return nil, nil, err
			}
			opts.Store = st
		}
		eng, err := magg.NewEngine(w.sqls(), p.groups, opts)
		if err != nil {
			return nil, nil, err
		}
		dur = append(dur, time.Since(start))
		// The engine built here only proves set-up completes; drain its
		// persister so no goroutine outlives the measurement.
		if err := eng.Finish(); err != nil {
			return nil, nil, err
		}
		if st != nil {
			st.Close()
		}
	}
	return p, dur, nil
}
