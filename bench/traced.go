package main

import (
	"os"
	"path/filepath"
	"runtime"
	"time"

	magg "repro"
	"repro/internal/choose"
	"repro/internal/core"
	"repro/internal/hashtab"
	"repro/internal/selvec"
	"repro/internal/spsc"
	"repro/internal/stream"
)

// The per-layer metrics, from the traced run only.
//
// `on` says which workloads exercise the metric's layer (nil: all six).
// The driver's one-line result must carry every listed metric on every
// workload and takes a time that reads the same on every run for a fake,
// so a time that only some workloads have (there is no filter to time on
// paper-flows) is docOnly: it is printed in the full document for the
// workloads it is defined on, and BENCHMARK.json lists in its place the
// stage's share of the staged time, a ratio that is honestly 0 elsewhere.
var perLayerMetrics = []metricDef{
	{name: "stream.decode_ns_per_record", unit: "ns", better: "lower"},
	{name: "stream.bytes_per_record", unit: "B", better: "lower"},
	{name: "query.filter_ns_per_record", unit: "ns", better: "lower", on: hasWhere, docOnly: true},
	{name: "query.filter_share", unit: "ratio", better: "lower", on: hasWhere},
	{name: "query.pass_fraction", unit: "ratio", better: "lower"},
	{name: "lfta.route_ns_per_record", unit: "ns", better: "lower", on: isSharded, docOnly: true},
	{name: "lfta.route_share", unit: "ratio", better: "lower", on: isSharded},
	{name: "lfta.process_self_ns_per_record", unit: "ns", better: "lower"},
	{name: "lfta.flush_self_ms_per_epoch", unit: "ms", better: "lower"},
	{name: "lfta.probes_per_record", unit: "count", better: "lower"},
	{name: "lfta.transfers_per_record", unit: "count", better: "lower"},
	{name: "hashtab.probe_ns_per_probe", unit: "ns", better: "lower"},
	{name: "hashtab.collision_rate", unit: "ratio", better: "lower", zeroOK: true},
	{name: "hashtab.table_bytes", unit: "B", better: "lower"},
	{name: "hfta.merge_ns_per_eviction", unit: "ns", better: "lower"},
	{name: "hfta.evictions_per_record", unit: "count", better: "lower"},
	{name: "hfta.rows_ns_per_group", unit: "ns", better: "lower"},
	{name: "hfta.groups_per_epoch", unit: "count", better: "lower"},
	{name: "hfta.compose_ms_per_window", unit: "ms", better: "lower", on: isWindowed, docOnly: true},
	{name: "hfta.compose_share", unit: "ratio", better: "lower", on: isWindowed},
	{name: "sketch.observe_ns_per_record", unit: "ns", better: "lower", on: isWindowed, docOnly: true},
	{name: "sketch.observe_share", unit: "ratio", better: "lower", on: isWindowed},
	{name: "sketch.partial_bytes_per_group", unit: "B", better: "lower", on: isWindowed},
	{name: "epochstore.append_ms_per_epoch", unit: "ms", better: "lower", on: isDurable, docOnly: true},
	{name: "epochstore.append_share", unit: "ratio", better: "lower", on: isDurable},
	{name: "epochstore.bytes_per_epoch", unit: "B", better: "lower", on: isDurable},
	{name: "epochstore.fsyncs_per_epoch", unit: "count", better: "lower", on: isDurable},
	{name: "epochstore.write_amp", unit: "ratio", better: "lower", on: isDurable},
	{name: "core.admit_ns_per_record", unit: "ns", better: "lower", on: notShedding, docOnly: true},
	{name: "core.admit_share", unit: "ratio", better: "lower", on: notShedding},
	{name: "core.emit_ns_per_group", unit: "ns", better: "lower"},
	{name: "core.checkpoint_ms_per_epoch", unit: "ms", better: "lower", on: isDurable, docOnly: true},
	{name: "core.checkpoint_share", unit: "ratio", better: "lower", on: isDurable},
	{name: "core.checkpoint_bytes", unit: "B", better: "lower", on: isDurable},
	{name: "core.shed_admit_ns_per_record", unit: "ns", better: "lower", on: isShedding, docOnly: true},
	{name: "core.shed_fraction", unit: "ratio", better: "lower", on: isShedding},
	{name: "core.unpersisted_epochs", unit: "count", better: "lower", zeroOK: true},
	{name: "core.unattributed_share", unit: "ratio", better: "lower", zeroOK: true},
	{name: "choose.plan_ms", unit: "ms", better: "lower"},
	{name: "choose.phantoms", unit: "count", better: "higher", zeroOK: true},
	{name: "cost.modeled_per_record", unit: "ops/record", better: "lower"},
	{name: "cost.model_ratio", unit: "ratio", better: "lower"},
	{name: "spsc.handoff_ns_per_run", unit: "ns", better: "lower", on: isParallel, docOnly: true},
	{name: "spsc.runs_per_krecord", unit: "count", better: "lower", on: isSharded},
	{name: "rt.gc_cycles", unit: "count", better: "lower", zeroOK: true},
	{name: "rt.gc_pause_ms", unit: "ms", better: "lower", zeroOK: true},
	{name: "rt.mallocs_per_krecord", unit: "count", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower", zeroOK: true},
	{name: "host.calib_ns_per_iter_before", unit: "ns", better: "lower"},
	{name: "host.calib_ns_per_iter_after", unit: "ns", better: "lower"},
}

func hasWhere(w workload) bool    { return w.whereBelow > 0 }
func isSharded(w workload) bool   { return w.shards > 1 }
func isWindowed(w workload) bool  { return w.windowed }
func isDurable(w workload) bool   { return w.durable }
func isShedding(w workload) bool  { return w.shedShare > 0 }
func notShedding(w workload) bool { return w.shedShare == 0 } // the shed path's loop is one lfta.process span
func isParallel(w workload) bool  { return w.parallel }

// driverLayerMetrics are the per-layer metrics BENCHMARK.json lists.
func driverLayerMetrics() []metricDef {
	var out []metricDef
	for _, d := range perLayerMetrics {
		if !d.docOnly {
			out = append(out, d)
		}
	}
	return out
}

// spanCapacity is the span slice's initial size: one pass of any workload
// fits. It is small because a large pointer-free slice is heap ballast
// that makes the traced pipeline collect garbage less often than the
// engine it is compared with.
const spanCapacity = 1 << 15

// unattributedTolerance is how far the traced stage times may sum from
// the untraced engine's time before the run says so. It is printed with
// the share, not used to hide it.
const unattributedTolerance = 0.15

// tracedResult is what the traced run of one workload produced.
type tracedResult struct {
	layer map[string]value
	info  map[string]any
	checks
}

// stagedPass replays one pass through the staged pipeline and returns the
// pipeline (for its counters), the client-side result and the wall time.
func stagedPass(p *prepared, plan *choose.Result, tr *tracer) (*staged, *runResult, time.Duration, error) {
	res := &runResult{}
	src := newReplay(p, 0, 1)
	src.tr = tr
	s, err := newStaged(p, plan, tr, res, src)
	if err != nil {
		return nil, nil, 0, err
	}
	defer s.close()
	start := time.Now()
	if err := s.run(src); err != nil {
		return nil, nil, 0, err
	}
	return s, res, time.Since(start), nil
}

// runTraced measures the per-layer metrics of one workload: a short
// untraced run of the real thing for the reference time and rows, then
// the staged pipeline alternately without and with spans until the time
// budget is spent, then the stand-alone layer measurements.
func runTraced(p *prepared, cfg config, budget time.Duration, calibBefore float64) (*tracedResult, error) {
	w := p.w
	out := &tracedResult{layer: map[string]value{}, info: map[string]any{}}
	var planMs []float64
	var plan *choose.Result
	for i := 0; i < 5; i++ {
		pl, d, err := planFor(p)
		if err != nil {
			return nil, err
		}
		plan = pl
		planMs = append(planMs, float64(d)/1e6)
	}

	// The real thing, untraced: reference ns/record, rows, runtime counters.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	total := 0
	if cfg.passes > 0 {
		total = cfg.passes
	}
	ref, err := run(p, budget*2/5, total)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	out.add(ref.checks)
	engineNs := median(ref.passNs) / float64(w.records)
	records := float64(len(ref.passNs)+1) * float64(w.records)

	// The staged pipeline, untraced and traced in turn.
	var (
		reps     []map[string]float64
		last     *tracer
		lastRun  *staged
		deadline = time.Now().Add(budget * 3 / 5)
	)
	for len(reps) == 0 || time.Now().Before(deadline) && cfg.passes == 0 {
		ballast := make([]span, 0, spanCapacity) // the traced pass's heap, without its spans
		_, _, plain, err := stagedPass(p, plan, nil)
		runtime.KeepAlive(ballast)
		if err != nil {
			return nil, err
		}
		tr := newTracer(spanCapacity)
		s, res, traced, err := stagedPass(p, plan, tr)
		if err != nil {
			return nil, err
		}
		out.add(res.checks)
		if len(reps) == 0 {
			// Same rows as the engine, or the run fails.
			out.attempted += res.passRows[0] + res.winRows[0]
			if res.passSums[0] != ref.passSums[0] || res.passRows[0] != ref.passRows[0] {
				out.fail(max(1, absDiff(uint64(res.passRows[0]), uint64(ref.passRows[0]))),
					"staged pipeline's epoch rows differ from the engine's (%d rows vs %d)", res.passRows[0], ref.passRows[0])
			}
			if res.winSums[0] != ref.winSums[0] || res.winRows[0] != ref.winRows[0] {
				out.fail(max(1, absDiff(uint64(res.winRows[0]), uint64(ref.winRows[0]))),
					"staged pipeline's window rows differ from the engine's (%d rows vs %d)", res.winRows[0], ref.winRows[0])
			}
		}
		m := stagedMetrics(s, tr.totals())
		m["trace.overhead_share"] = float64(traced)/float64(plain) - 1
		reps = append(reps, m)
		last, lastRun = tr, s
	}
	layer := map[string]float64{}
	for name := range reps[0] {
		xs := make([]float64, len(reps))
		for i, m := range reps {
			xs[i] = m[name]
		}
		layer[name] = median(xs)
	}

	// Checkpoints need an engine: replay one pass through a real one and
	// time WriteCheckpointFile at every epoch end.
	if w.durable {
		ms, size, err := checkpointPass(p, last)
		if err != nil {
			return nil, err
		}
		layer["core.checkpoint_ms_per_epoch"] = median(ms)
		layer["core.checkpoint_bytes"] = float64(size)
		var sum float64
		for _, v := range ms {
			sum += v
		}
		layer[selfKey(stCheckpoint)] = sum * 1e6 / float64(w.records)
	}

	// Stage self times (ns per record read) → shares, and the sum that is
	// compared with the engine. The store append is left out of that sum:
	// the engine does it on another goroutine.
	var allNs, stagedNs float64
	for st := stage(0); st < numStages; st++ {
		allNs += layer[selfKey(st)]
		if st != stAppend {
			stagedNs += layer[selfKey(st)]
		}
	}
	for name, st := range map[string]stage{
		"query.filter_share": stFilter, "lfta.route_share": stRoute, "core.admit_share": stAdmit,
		"sketch.observe_share": stSketch, "hfta.compose_share": stCompose,
		"epochstore.append_share": stAppend, "core.checkpoint_share": stCheckpoint,
	} {
		layer[name] = layer[selfKey(st)] / allNs
	}
	layer["core.unattributed_share"] = 1 - stagedNs/engineNs
	out.info["engine_ns_per_record"] = engineNs
	out.info["staged_ns_per_record"] = stagedNs
	out.info["staged_reps"] = len(reps)
	out.info["unattributed_tolerance"] = unattributedTolerance
	if u := layer["core.unattributed_share"]; (u > unattributedTolerance || u < -unattributedTolerance) && !w.parallel {
		out.info["unattributed_outside_tolerance"] = true
	}
	out.info["layer_share"], out.info["dominant"] = layerShares(layer, allNs)

	// Stand-alone layer measurements.
	ns, rate, size, err := probeAlone(p, plan)
	if err != nil {
		return nil, err
	}
	layer["hashtab.probe_ns_per_probe"] = ns
	layer["hashtab.collision_rate"] = rate
	layer["hashtab.table_bytes"] = size
	if w.parallel {
		layer["spsc.handoff_ns_per_run"] = handoffAlone()
	}
	if len(lastRun.exhausted) > 0 {
		layer["core.shed_admit_ns_per_record"] = admitAlone(lastRun.exhausted, uint64(p.seed))
	}
	if fi, err := os.Stat(p.tracePath); err == nil {
		layer["stream.bytes_per_record"] = float64(fi.Size()) / float64(w.records)
	}

	phantoms := 0
	for _, r := range plan.Config.Rels {
		if !plan.Config.IsQuery(r) {
			phantoms++
		}
	}
	layer["choose.plan_ms"] = median(planMs)
	layer["choose.phantoms"] = float64(phantoms)
	layer["cost.modeled_per_record"] = plan.Cost
	layer["cost.model_ratio"] = ref.ops.PerRecordCost(1, 50) / plan.Cost
	if ref.offered > 0 {
		layer["core.shed_fraction"] = float64(ref.dropped) / float64(ref.offered)
	}
	layer["core.unpersisted_epochs"] = float64(ref.unpersisted)
	layer["rt.gc_cycles"] = float64(after.NumGC - before.NumGC)
	layer["rt.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	layer["rt.mallocs_per_krecord"] = float64(after.Mallocs-before.Mallocs) / (records / 1000)
	layer["host.calib_ns_per_iter_before"] = calibBefore
	layer["host.calib_ns_per_iter_after"] = calibrate()

	for _, def := range perLayerMetrics {
		out.layer[def.name] = value{Value: layer[def.name], Unit: def.unit}
	}

	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := last.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// selfKey names a stage's self time per record read, the intermediate the
// shares and the stage sum are made from.
func selfKey(st stage) string { return "self:" + stageNames[st] }

// stagedMetrics turns one traced pass's spans and counts into per-layer
// numbers.
func stagedMetrics(s *staged, st stageTimes) map[string]float64 {
	m := map[string]float64{}
	per := func(ns int64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	ops := s.ops()
	epochs, windows := uint64(s.epochs), uint64(s.windows)
	m["stream.decode_ns_per_record"] = per(st.self[stDecode], s.records)
	m["query.filter_ns_per_record"] = per(st.self[stFilter], s.records)
	m["query.pass_fraction"] = per(int64(s.passed), s.records)
	m["lfta.route_ns_per_record"] = per(st.self[stRoute], s.records)
	m["core.admit_ns_per_record"] = per(st.self[stAdmit], s.records)
	m["core.emit_ns_per_group"] = per(st.total[stEmit], s.rowsCopied)
	m["lfta.process_self_ns_per_record"] = per(st.self[stProcess], s.records)
	m["lfta.flush_self_ms_per_epoch"] = per(st.self[stFlush], epochs) / 1e6
	m["lfta.probes_per_record"] = per(int64(ops.Probes), ops.Records)
	m["lfta.transfers_per_record"] = per(int64(ops.Transfers), ops.Records)
	m["hfta.merge_ns_per_eviction"] = per(st.total[stMerge], s.evictions)
	m["hfta.evictions_per_record"] = per(int64(s.evictions), ops.Records)
	m["hfta.rows_ns_per_group"] = per(st.total[stRows], s.rowsRead)
	m["hfta.groups_per_epoch"] = per(s.col.res.passRows[0], epochs)
	m["hfta.compose_ms_per_window"] = per(st.total[stCompose], windows) / 1e6
	m["sketch.observe_ns_per_record"] = per(st.self[stSketch], s.admitted)
	m["sketch.partial_bytes_per_group"] = per(int64(s.blobBytes), s.blobs)
	if s.fsys != nil {
		m["epochstore.append_ms_per_epoch"] = per(st.total[stAppend], epochs) / 1e6
		m["epochstore.bytes_per_epoch"] = per(int64(s.fsys.bytes), epochs)
		m["epochstore.fsyncs_per_epoch"] = per(int64(s.fsys.syncs), epochs)
		m["epochstore.write_amp"] = per(int64(s.fsys.bytes), s.rowBytes)
	}
	if s.srt != nil {
		m["spsc.runs_per_krecord"] = per(int64(s.runs)*1000, s.admitted)
	}
	for sg := stage(0); sg < numStages; sg++ {
		m[selfKey(sg)] = per(st.self[sg], s.records)
	}
	return m
}

// layerShares groups self time by layer and names the largest group, so
// the predicted dominance (decode+filter on selective-where, hfta+flush on
// hostile-card, lfta on paper-flows) is printed, not assumed.
func layerShares(layer map[string]float64, allNs float64) (map[string]float64, string) {
	groups := map[string][]stage{
		"stream+query": {stDecode, stFilter},
		"lfta+hashtab": {stRoute, stProcess},
		"hfta+flush":   {stFlush, stMerge, stRows, stCompose},
		"sketch":       {stSketch},
		"epochstore":   {stAppend},
		"core":         {stAdmit, stCheckpoint, stEmit},
	}
	shares := map[string]float64{}
	best := ""
	for name, stages := range groups {
		for _, sg := range stages {
			shares[name] += layer[selfKey(sg)] / allNs
		}
		if best == "" || shares[name] > shares[best] {
			best = name
		}
	}
	return shares, best
}

// checkpointPass replays one pass through a real engine (checkpoints are
// engine state; nothing else can write one) and times
// Engine.WriteCheckpointFile after each batch that closed an epoch. The
// spans go into tr as roots.
func checkpointPass(p *prepared, tr *tracer) (ms []float64, size int64, err error) {
	w := p.w
	queries := w.queries()
	last := queries[len(queries)-1]
	closed := false
	opts := p.options()
	opts.OnResults = func(rel magg.Relation, _ uint32, _ []magg.Row, _ magg.Degradation) {
		closed = closed || rel == last
	}
	if w.windowed {
		opts.OnWindow = func(magg.Relation, magg.WindowLedger, []magg.WindowRow) {}
	}
	eng, err := magg.NewEngine(w.sqls(), p.groups, opts)
	if err != nil {
		return nil, 0, err
	}
	path := filepath.Join(p.dir, "staged.ckpt")
	src := newReplay(p, 0, 1)
	var cb stream.ColumnBatch
	for {
		if src.NextColumns(&cb, stream.ColumnBatchLen) == 0 {
			break
		}
		if err := eng.ProcessColumnBatch(&cb); err != nil {
			return nil, 0, err
		}
		if closed {
			closed = false
			id := tr.begin(stCheckpoint, cb.Time[0]/w.epochLen)
			err := eng.WriteCheckpointFile(path)
			tr.end(id)
			if err != nil {
				return nil, 0, err
			}
			sp := tr.spans[id]
			ms = append(ms, float64(sp.end-sp.start)/1e6)
		}
	}
	if err := src.Err(); err != nil {
		return nil, 0, err
	}
	if err := eng.Finish(); err != nil {
		return nil, 0, err
	}
	if fi, err := os.Stat(path); err == nil {
		size = fi.Size()
	}
	return ms, size, nil
}

// probeAlone feeds one pass of the workload's key columns to a table of
// the plan's first raw relation, alone: no cascade, no sink.
func probeAlone(p *prepared, plan *choose.Result) (nsPerProbe, collisionRate, tableBytes float64, err error) {
	rel := plan.Config.Raws()[0]
	tab, err := hashtab.New(rel, plan.Alloc[rel], []hashtab.AggOp{hashtab.Sum}, uint64(p.seed))
	if err != nil {
		return 0, 0, 0, err
	}
	filter, err := compiledWhere(p.w)
	if err != nil {
		return 0, 0, 0, err
	}
	src := newReplay(p, 0, 1)
	var (
		cb      stream.ColumnBatch
		sel     selvec.Bitmap
		victims hashtab.VictimRun
		deltas  = make([]int64, stream.ColumnBatchLen)
		kc      [][]uint32
		elapsed time.Duration
		epoch   uint32
	)
	for i := range deltas {
		deltas[i] = 1
	}
	for {
		n := src.NextColumns(&cb, stream.ColumnBatchLen)
		if n == 0 {
			break
		}
		if e := cb.Time[0] / p.w.epochLen; e != epoch {
			tab.Clear()
			epoch = e
		}
		sel = selvec.Grow(sel, n)
		if filter != nil {
			filter.EvalColumns(cb.Cols, n, sel)
		} else {
			sel.SetAll(n)
		}
		kc = kc[:0]
		for _, id := range rel.IDs() {
			kc = append(kc, cb.Cols[id])
		}
		m := sel.Count(n)
		start := time.Now()
		tab.ProbeColumnsSelInto(kc, deltas[:m], n, sel, &victims)
		elapsed += time.Since(start)
	}
	if err := src.Err(); err != nil {
		return 0, 0, 0, err
	}
	stats := tab.Stats()
	if stats.Probes > 0 {
		nsPerProbe = float64(elapsed) / float64(stats.Probes)
	}
	bytes := tab.Groups()*hashtab.GroupSlots + tab.Buckets()*(4*tab.Arity()+8*(tab.NumAggs()+1))
	return nsPerProbe, stats.CollisionRate(), float64(bytes), nil
}

// handoffAlone is the cost of passing one item between two goroutines
// over the ring the parallel pipeline hands sealed runs over.
func handoffAlone() float64 {
	const items = 1 << 20
	ring := spsc.New[int](8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got := 0; got < items; {
			if _, ok := ring.Pop(); ok {
				got++
			} else {
				runtime.Gosched()
			}
		}
	}()
	start := time.Now()
	for i := 0; i < items; {
		if ring.Push(i) {
			i++
		} else {
			runtime.Gosched()
		}
	}
	<-done
	return float64(time.Since(start)) / items
}

// admitAlone replays the shed policy's decisions of one pass on their own.
func admitAlone(exhausted []bool, seed uint64) float64 {
	shed := core.NewUniformShed(0, seed)
	shed.EpochEnd(core.Degradation{Offered: 100, Dropped: 40})
	admitted := 0
	start := time.Now()
	for _, spent := range exhausted {
		if shed.Admit(stream.Record{}, spent) {
			admitted++
		}
	}
	elapsed := time.Since(start)
	calibSink += uint64(admitted)
	return float64(elapsed) / float64(len(exhausted))
}
