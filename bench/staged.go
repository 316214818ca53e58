package main

import (
	"io/fs"
	"math/bits"
	"os"
	"time"

	"repro/internal/attr"
	"repro/internal/choose"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/epochstore"
	"repro/internal/feedgraph"
	"repro/internal/hfta"
	"repro/internal/lfta"
	"repro/internal/query"
	"repro/internal/selvec"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// The staged pipeline is the engine's columnar path put together again in
// this file from the layers' public, selection-aware entry points, so
// each call can be timed from outside:
//
//	stream.ReadColumns → CompiledFilter.EvalColumns → Sharded.ShardColumns
//	→ Runtime.ProcessColumnsSel (RunSink: Aggregator.MergeRun)
//	→ at each epoch end: Runtime.FlushEpoch → Aggregator.Rows
//	→ Store.AppendEpoch → Composer.ClosePane/CloseThrough → Drop
//
// It binds to none of Process, ProcessBatch, ProcessRun, ProcessColumns,
// Probe, ProbeInto, ProbeBatchInto or InterpretedFilter, so deleting
// those siblings cannot break the benchmark. It must produce the same
// rows as the engine, or the run fails.
//
// Two things differ from the engine by design. The engine appends to the
// store on its persister goroutine; here AppendEpoch is called inline so
// it can be timed, and its span is left out of the sum that is compared
// with the engine's time. The engine admits row by row under a budget
// through the scalar Process; here each admitted record is probed as a
// one-lane selection, and the admit-and-probe loop of a batch is one
// lfta.process span: timing each record would cost as much as the probe.

type staged struct {
	tr *tracer // nil: same pipeline, no spans (tracing overhead baseline)

	queries  []attr.Set
	aggs     []lfta.AggSpec
	epochLen uint32
	filter   *query.CompiledFilter
	rts      []*lfta.Runtime
	srt      *lfta.Sharded // nil when unsharded
	agg      *hfta.Aggregator
	col      *collector

	comp     *hfta.Composer
	saggs    []sketch.Agg
	paneSk   map[attr.Set]map[string]*sketch.Partial
	store    *epochstore.Store
	storeDir string
	fsys     *countingFS

	// overload control, mirroring the engine's sharded admission
	shed     core.ShedPolicy
	budget   float64
	avail    []float64
	weight   []float64
	shedTick uint32
	shedOn   bool
	shardDeg []core.Degradation

	started bool
	cur     uint32
	deg     core.Degradation

	sel      selvec.Bitmap
	seg      selvec.Bitmap
	shardSel []selvec.Bitmap
	six      []int32
	row      []uint32
	keyBuf   []uint32
	keyBytes []byte

	// counts taken at the same boundaries as the spans
	records    uint64 // read from the source
	passed     uint64 // passed the WHERE
	admitted   uint64 // reached the LFTA
	evictions  uint64 // partials handed to MergeRun
	rowsRead   uint64 // rows returned by Aggregator.Rows, every call
	rowsCopied uint64 // rows through the engine's HAVING copy
	rowBytes   uint64 // key and aggregate bytes handed to the store
	blobs      uint64
	blobBytes  uint64
	epochs     int
	windows    int
	runs       uint64 // 512-record runs a sharded router would seal
	shardIn    []uint64
	exhausted  []bool // per record on the shed path, for the admit replay
}

func (s *staged) begin(st stage) int32 {
	if s.tr == nil {
		return -1
	}
	return s.tr.begin(st, s.cur)
}

func (s *staged) end(id int32) {
	if id >= 0 {
		s.tr.end(id)
	}
}

func newStaged(p *prepared, plan *choose.Result, tr *tracer, res *runResult, src *replay) (*staged, error) {
	w := p.w
	specs, err := query.ParseSet(w.sqls())
	if err != nil {
		return nil, err
	}
	s := &staged{tr: tr, epochLen: specs[0].EpochLen, aggs: specs[0].AggSpecs()}
	for _, sp := range specs {
		s.queries = append(s.queries, sp.GroupBy)
	}
	if s.filter, err = compiledWhere(w); err != nil {
		return nil, err
	}
	if s.agg, err = hfta.New(s.queries, s.aggs); err != nil {
		return nil, err
	}
	sink := func(rel attr.Set, epoch uint32, keys []uint32, aggs []int64) {
		id := s.begin(stMerge)
		s.agg.MergeRun(rel, epoch, keys, aggs)
		s.end(id)
		s.evictions += uint64(len(aggs) / len(s.aggs))
	}
	if w.shards > 1 {
		if s.srt, err = lfta.NewSharded(plan.Config, plan.Alloc, s.aggs, uint64(p.seed), nil, w.shards); err != nil {
			return nil, err
		}
		for i := 0; i < w.shards; i++ {
			s.rts = append(s.rts, s.srt.Shard(i))
		}
		s.shardSel = make([]selvec.Bitmap, w.shards)
		s.shardIn = make([]uint64, w.shards)
	} else {
		rt, err := lfta.New(plan.Config, plan.Alloc, s.aggs, uint64(p.seed), nil)
		if err != nil {
			return nil, err
		}
		s.rts = []*lfta.Runtime{rt}
	}
	for _, rt := range s.rts {
		rt.SetRunSink(sink, 0)
	}
	s.col = &collector{res: res, src: src, last: s.queries[len(s.queries)-1],
		epp: uint32(w.epochsPerPass()), heap: newHeapSampler()}

	if w.windowed {
		s.saggs = specs[0].SketchSpecs()
		win := hfta.WindowSpec{Size: specs[0].WindowSize, Slide: specs[0].WindowSlide}
		if s.comp, err = hfta.NewComposer(win, s.queries, s.aggs, s.saggs, sketchPrecision, 0); err != nil {
			return nil, err
		}
		s.paneSk = map[attr.Set]map[string]*sketch.Partial{}
		for _, q := range s.queries {
			s.paneSk[q] = map[string]*sketch.Partial{}
		}
	}
	if w.durable {
		s.fsys = &countingFS{}
		if s.storeDir, err = os.MkdirTemp(p.dir, "staged-store-"); err != nil {
			return nil, err
		}
		if s.store, err = epochstore.Open(s.storeDir, epochstore.Options{FS: s.fsys}); err != nil {
			return nil, err
		}
	}
	if p.budget > 0 {
		s.budget = p.budget
		s.shed = core.NewUniformShed(0, uint64(p.seed))
		s.avail = make([]float64, w.shards)
		s.weight = make([]float64, w.shards)
		for i := range s.weight {
			s.weight[i] = 1 / float64(w.shards)
		}
		s.shardDeg = make([]core.Degradation, w.shards)
	}
	return s, nil
}

// compiledWhere compiles the workload's WHERE as the engine does; nil when
// there is none.
func compiledWhere(w workload) (*query.CompiledFilter, error) {
	spec, err := query.Parse(w.sqls()[0])
	if err != nil || spec.Where.Empty() {
		return nil, err
	}
	return spec.Where.Compile(), nil
}

func (s *staged) close() {
	if s.store != nil {
		s.store.Close()
		os.RemoveAll(s.storeDir)
	}
}

// run pulls the source dry through the staged pipeline.
func (s *staged) run(src *replay) error {
	var cb stream.ColumnBatch
	for {
		n := src.NextColumns(&cb, stream.ColumnBatchLen) // opens the stream.decode span
		if n == 0 {
			break
		}
		s.records += uint64(n)
		if s.shed != nil {
			s.shedBatch(&cb, n)
		} else {
			s.batch(&cb, n)
		}
	}
	if err := src.Err(); err != nil {
		return err
	}
	if s.started {
		s.closeEpoch(s.cur, s.cur)
	}
	if s.comp != nil {
		id := s.begin(stCompose)
		results := s.comp.CloseAll()
		s.end(id)
		s.deliver(results)
	}
	return nil
}

// batch is the engine's ProcessColumnBatch: filter into a selection,
// route the selection, then walk the selected lanes once — clock, ledger,
// and the lane's place in the current epoch's segment — probing each
// segment when the epoch rolls and at the end of the batch.
func (s *staged) batch(cb *stream.ColumnBatch, n int) {
	cols, times := cb.Cols, cb.Time
	s.sel = selvec.Grow(s.sel, n)
	if s.filter != nil {
		id := s.begin(stFilter)
		s.filter.EvalColumns(cols, n, s.sel)
		s.end(id)
	} else {
		s.sel.SetAll(n)
	}
	m := s.sel.Count(n)
	if m == 0 {
		return
	}
	s.passed += uint64(m)

	var six []int32
	if s.srt != nil {
		id := s.begin(stRoute)
		if cap(s.six) < m {
			s.six = make([]int32, m)
		}
		six = s.six[:m]
		s.srt.ShardColumns(cols, n, s.sel, six)
		s.end(id)
	}

	id := s.begin(stAdmit)
	s.clearSegment(n)
	pending, k := 0, 0
	for wi, w := range s.sel[:selvec.Words(n)] {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if e := times[i] / s.epochLen; !s.started {
				s.started, s.cur = true, e
			} else if e > s.cur {
				s.end(id)
				if pending > 0 {
					s.probeSegment(cols, n)
					pending = 0
				}
				s.closeEpoch(s.cur, e)
				s.cur = e
				id = s.begin(stAdmit)
				s.clearSegment(n)
			}
			s.deg.Offered++
			s.deg.Processed++
			if six != nil {
				s.shardSel[six[k]].Set(i)
				s.shardIn[six[k]]++
			} else {
				s.seg.Set(i)
			}
			pending++
			k++
		}
	}
	s.end(id)
	s.admitted += uint64(m)
	if pending > 0 {
		s.probeSegment(cols, n)
	}
}

// clearSegment empties the lane sets of the segment being gathered.
func (s *staged) clearSegment(n int) {
	if s.srt == nil {
		s.seg = selvec.Grow(s.seg, n)
		s.seg.Clear(n)
		return
	}
	for sh := range s.shardSel {
		s.shardSel[sh] = selvec.Grow(s.shardSel[sh], n)
		s.shardSel[sh].Clear(n)
	}
}

// probeSegment feeds the gathered lanes, all of the current epoch, to the
// sketches and the LFTA.
func (s *staged) probeSegment(cols [][]uint32, n int) {
	if s.paneSk != nil {
		id := s.begin(stSketch)
		for wi := 0; wi < selvec.Words(n); wi++ {
			var w uint64
			if s.srt == nil {
				w = s.seg[wi]
			}
			for _, ss := range s.shardSel {
				w |= ss[wi]
			}
			for ; w != 0; w &= w - 1 {
				i := wi<<6 + bits.TrailingZeros64(w)
				s.row = s.row[:0]
				for a := range cols {
					s.row = append(s.row, cols[a][i])
				}
				s.observe(s.row)
			}
		}
		s.end(id)
	}
	id := s.begin(stProcess)
	if s.srt == nil {
		s.rts[0].ProcessColumnsSel(cols, n, s.seg, s.cur)
	} else {
		for sh, rt := range s.rts {
			rt.ProcessColumnsSel(cols, n, s.shardSel[sh], s.cur)
		}
	}
	s.end(id)
}

// observe is the engine's pane sketch accumulation: one partial per
// query group, fed the admitted record.
func (s *staged) observe(row []uint32) {
	for _, q := range s.queries {
		s.keyBuf = q.Project(row, s.keyBuf[:0])
		s.keyBytes = hfta.AppendKeyBytes(s.keyBytes[:0], s.keyBuf)
		m := s.paneSk[q]
		p := m[string(s.keyBytes)]
		if p == nil {
			var err error
			if p, err = sketch.NewPartial(s.saggs, sketchPrecision, 0); err != nil {
				panic(err) // the spec list came out of the query parser
			}
			m[string(s.keyBytes)] = p
		}
		p.Observe(row)
	}
}

// shedBatch is the budgeted path: route the whole batch, then admit and
// probe record by record, charging each record's measured operations
// against its shard's slice of the budget before the next is admitted.
func (s *staged) shedBatch(cb *stream.ColumnBatch, n int) {
	cols, times := cb.Cols, cb.Time
	s.sel = selvec.Grow(s.sel, n)
	s.sel.SetAll(n)
	s.passed += uint64(n)

	id := s.begin(stRoute)
	if cap(s.six) < n {
		s.six = make([]int32, n)
	}
	six := s.six[:n]
	s.srt.ShardColumns(cols, n, s.sel, six)
	s.end(id)

	one := selvec.Grow(s.seg, n)
	one.Clear(n)
	s.seg = one
	params := cost.DefaultParams()
	c1, c2 := params.C1, params.C2
	id = s.begin(stProcess)
	for i := 0; i < n; i++ {
		t := times[i]
		if e := t / s.epochLen; !s.started {
			s.started, s.cur = true, e
		} else if e > s.cur {
			s.end(id)
			s.closeEpoch(s.cur, e)
			s.cur = e
			id = s.begin(stProcess)
		}
		sh := six[i]
		s.deg.Epoch = s.cur
		s.deg.Offered++
		s.shardDeg[sh].Offered++
		if !s.shedOn || t > s.shedTick {
			s.shedOn, s.shedTick = true, t
			for j := range s.avail {
				s.avail[j] = s.budget * s.weight[j]
			}
		}
		spent := s.avail[sh] <= 0
		s.exhausted = append(s.exhausted, spent)
		if !s.shed.Admit(stream.Record{Time: t}, spent) {
			s.deg.Dropped++
			continue
		}
		rt := s.rts[sh]
		one.Set(i)
		before := rt.Ops()
		rt.ProcessColumnsSel(cols, n, one, s.cur)
		after := rt.Ops()
		one[i>>6] = 0
		s.avail[sh] -= float64(after.Probes-before.Probes)*c1 + float64(after.Transfers-before.Transfers)*c2
		s.deg.Processed++
		s.admitted++
		s.shardIn[sh]++
	}
	s.end(id)
}

// closeEpoch is the engine's closeEpochState in the engine's order:
// flush, close the ledger, capture rows for the store, feed the pane,
// emit, drop. next is the epoch now opening (== epoch at end of stream).
func (s *staged) closeEpoch(epoch, next uint32) {
	closed := s.deg
	closed.Epoch = epoch
	s.deg = core.Degradation{}

	id := s.begin(stFlush)
	for _, rt := range s.rts {
		rt.FlushEpoch()
	}
	s.end(id)
	s.epochs++
	for sh, c := range s.shardIn {
		s.runs += (c + 511) / 512
		s.shardIn[sh] = 0
	}
	if s.shed != nil {
		s.reconcileBudget()
		s.shed.EpochEnd(closed)
	}

	if s.store != nil {
		recs := make([]epochstore.Record, 0, len(s.queries))
		for _, q := range s.queries {
			rows := s.results(q, epoch)
			rec := epochstore.Record{Epoch: epoch, Rel: q,
				Offered: closed.Offered, Processed: closed.Processed, Dropped: closed.Dropped, Late: closed.Late,
				Rows: make([]epochstore.Row, len(rows))}
			for i := range rows {
				rec.Rows[i] = epochstore.Row{Key: rows[i].Key, Aggs: rows[i].Aggs}
				s.rowBytes += uint64(4*len(rows[i].Key) + 8*len(rows[i].Aggs))
			}
			recs = append(recs, rec)
		}
		id := s.begin(stAppend)
		err := s.store.AppendEpoch(recs)
		s.end(id)
		if err != nil {
			s.col.res.fail(1, "staged store append, epoch %d: %v", epoch, err)
		}
	}

	if s.comp != nil {
		inputs := make([]hfta.PaneInput, 0, len(s.queries))
		for _, q := range s.queries {
			in := hfta.PaneInput{Rel: q, Rows: s.rows(q, epoch)}
			if m := s.paneSk[q]; len(m) > 0 {
				id := s.begin(stSketch)
				in.Sketches = make(map[string][]byte, len(m))
				for k, p := range m {
					blob := p.AppendBinary(nil)
					in.Sketches[k] = blob
					s.blobs++
					s.blobBytes += uint64(len(blob))
				}
				s.paneSk[q] = map[string]*sketch.Partial{}
				s.end(id)
			}
			inputs = append(inputs, in)
		}
		id := s.begin(stCompose)
		s.comp.ClosePane(epoch, hfta.PaneStats{Offered: closed.Offered, Processed: closed.Processed,
			Dropped: closed.Dropped, Late: closed.Late}, inputs)
		var results []hfta.WindowResult
		if next > epoch {
			results = s.comp.CloseThrough(int64(next) - 1)
		}
		s.end(id)
		s.deliver(results)
	}

	for _, q := range s.queries {
		s.col.onResults(q, epoch, s.results(q, epoch), closed)
	}
	id = s.begin(stRows)
	s.agg.Drop(epoch)
	s.end(id)
}

func (s *staged) rows(q attr.Set, epoch uint32) []hfta.Row {
	id := s.begin(stRows)
	rows := s.agg.Rows(q, epoch)
	s.end(id)
	s.rowsRead += uint64(len(rows))
	return rows
}

// results is the engine's Results: the rows again, through the HAVING
// filter into a second slice (these queries have no HAVING; the engine
// copies all the same).
func (s *staged) results(q attr.Set, epoch uint32) []hfta.Row {
	rows := s.rows(q, epoch)
	id := s.begin(stEmit)
	out := rows[:0:0]
	for _, r := range rows {
		out = append(out, r)
	}
	s.end(id)
	s.rowsCopied += uint64(len(out))
	return out
}

func (s *staged) deliver(results []hfta.WindowResult) {
	var scratch []hfta.WindowRow
	for _, res := range results {
		s.windows++
		for _, q := range s.queries {
			scratch = scratch[:0]
			for _, r := range res.Rows {
				if r.Rel == q {
					scratch = append(scratch, r)
				}
			}
			s.col.onWindow(q, res.Ledger, scratch)
		}
		s.comp.Recycle(res)
	}
}

// reconcileBudget re-splits the budget by the closed epoch's per-shard
// demand, with the engine's constants and order of operations, so the
// same records are shed.
func (s *staged) reconcileBudget() {
	var total float64
	for i := range s.shardDeg {
		total += float64(s.shardDeg[i].Offered)
	}
	if total > 0 {
		const alpha = 0.5
		floor := 0.1 / float64(len(s.weight))
		var sum float64
		for i := range s.weight {
			w := alpha*(float64(s.shardDeg[i].Offered)/total) + (1-alpha)*s.weight[i]
			if w < floor {
				w = floor
			}
			s.weight[i] = w
			sum += w
		}
		for i := range s.weight {
			s.weight[i] /= sum
		}
	}
	for i := range s.shardDeg {
		s.shardDeg[i] = core.Degradation{}
	}
}

// ops sums the runtimes' operation counters.
func (s *staged) ops() lfta.Ops {
	var total lfta.Ops
	for _, rt := range s.rts {
		o := rt.Ops()
		total.Probes += o.Probes
		total.Transfers += o.Transfers
		total.Records += o.Records
	}
	return total
}

// countingFS is the real filesystem with counters, so the store's bytes
// and fsyncs are counted where they happen.
type countingFS struct {
	epochstore.OSFS
	bytes  uint64
	writes uint64
	syncs  uint64
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (epochstore.File, error) {
	f, err := c.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	epochstore.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes += uint64(n)
	f.fs.writes++
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs++
	return f.File.Sync()
}

// planFor runs the engine's default planner on the prepared group counts.
func planFor(p *prepared) (*choose.Result, time.Duration, error) {
	g, err := feedgraph.New(p.w.queries())
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	plan, err := choose.GCSL(g, p.groups, memoryUnits, cost.DefaultParams())
	return plan, time.Since(start), err
}
