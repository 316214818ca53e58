package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime/metrics"
	"sync/atomic"
	"time"

	magg "repro"
	"repro/internal/stream"
)

// End-to-end runs bind only to the root magg package (NewEngine, Options,
// OpenTraceSource, Engine.Run, Stats, NewShardedLFTA, NewAggregator), with
// tracing off. What they observe is what a user of the system observes:
// records offered per second, the delay from an epoch's end to its
// answers, the paper's weighted operation count, and memory.

// runResult is what one untraced run produced.
type runResult struct {
	timedPasses int
	passNs      []float64   // wall time of each timed pass, tail share included
	chunkNs     [][]float64 // each timed pass's wall time in position-matched chunks, without the tail
	tailNs      float64     // Finish + SyncStore after the last record
	latencyMs   []float64   // one sample per epoch closed during timed passes
	latencyPass []int       // the timed pass (from 0) each sample was taken in
	heapBytes   []float64   // heap object bytes, sampled at each emission

	ops           magg.Ops // at the end of the first timed pass
	exactOffered  uint64   // the ledger at that same point
	exactAdmitted uint64

	offered  uint64 // the whole run's ledger
	admitted uint64
	dropped  uint64
	late     uint64
	epochs   int
	windows  int

	rows        int64    // answer rows emitted (epoch rows + window rows)
	passSums    []uint64 // order-independent checksum of each pass's epoch rows
	passRows    []int64
	winSums     []uint64 // same for the windows that lie inside each pass
	winRows     []int64
	unpersisted int

	checks
}

// latency records one emission-latency sample taken while `pass` was
// being replayed (pass 0 is the warm-up and is not sampled).
func (r *runResult) latency(ms float64, pass int) {
	r.latencyMs = append(r.latencyMs, ms)
	r.latencyPass = append(r.latencyPass, pass-1)
}

// checks counts the operations a run checked and the ones that failed,
// and says in words what failed.
type checks struct {
	attempted int64
	failed    int64
	problems  []string
}

func (c *checks) fail(n int64, format string, args ...any) {
	c.failed += n
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// add folds another set of checks into this one.
func (c *checks) add(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.problems = append(c.problems, o.problems...)
}

// mix folds one value into a row hash (splitmix64 finalizer).
func mix(h, v uint64) uint64 {
	h += v + 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

func hashRow(rel magg.Relation, slot uint32, key []uint32, aggs []int64, est []float64) uint64 {
	h := mix(uint64(rel), uint64(slot))
	for _, k := range key {
		h = mix(h, uint64(k))
	}
	for _, a := range aggs {
		h = mix(h, uint64(a))
	}
	for _, e := range est {
		h = mix(h, math.Float64bits(e))
	}
	return h
}

// heapSampler reads the heap's object bytes without stopping the world,
// once per emission.
type heapSampler struct {
	sample [1]metrics.Sample
	all    []float64 // bytes
}

func newHeapSampler() *heapSampler {
	h := &heapSampler{}
	h.sample[0].Name = "/memory/classes/heap/objects:bytes"
	return h
}

func (h *heapSampler) observe() {
	metrics.Read(h.sample[:])
	h.all = append(h.all, float64(h.sample[0].Value.Uint64()))
}

// collector is the client: it receives every answer the engine emits,
// checks it, and records when it arrived.
type collector struct {
	res  *runResult
	src  *replay
	last magg.Relation // the query whose callback ends an epoch's emission
	epp  uint32        // epochs per pass
	heap *heapSampler

	windowed     bool
	windowClosed bool // OnWindow fired since the last epoch's emission ended
}

func (c *collector) grow(pass int) {
	for len(c.res.passSums) <= pass {
		c.res.passSums = append(c.res.passSums, 0)
		c.res.passRows = append(c.res.passRows, 0)
		c.res.winSums = append(c.res.winSums, 0)
		c.res.winRows = append(c.res.winRows, 0)
	}
}

// checkRows takes one query's rows of one epoch: into the pass's checksum,
// and against mass conservation (their counts sum to the records the
// epoch processed).
func (c *collector) checkRows(rel magg.Relation, epoch uint32, rows []magg.Row, processed uint64) {
	pass := int(epoch / c.epp)
	c.grow(pass)
	var mass int64
	var sum uint64
	for i := range rows {
		mass += rows[i].Aggs[0]
		sum += hashRow(rel, epoch%c.epp, rows[i].Key, rows[i].Aggs, nil)
	}
	c.res.passSums[pass] += sum
	c.res.passRows[pass] += int64(len(rows))
	c.res.rows += int64(len(rows))
	if uint64(mass) != processed {
		c.res.fail(1, "epoch %d %v: rows count %d records, the epoch processed %d", epoch, rel, mass, processed)
	}
}

func (c *collector) onResults(rel magg.Relation, epoch uint32, rows []magg.Row, deg magg.Degradation) {
	c.checkRows(rel, epoch, rows, deg.Processed)
	if rel != c.last {
		return
	}
	// The last callback of this epoch's roll: the answer is complete.
	if deg.Offered != deg.Processed+deg.Dropped+deg.Late {
		c.res.fail(1, "epoch %d: ledger %d != %d + %d + %d", epoch, deg.Offered, deg.Processed, deg.Dropped, deg.Late)
	}
	c.res.epochs++
	// On a windowed workload the answer a user waits for is the window's:
	// only a roll that closed one is a sample (the others emit pane rows,
	// and mixing the two puts the median between two modes).
	if c.src.pass >= 1 && !c.src.done && (!c.windowed || c.windowClosed) {
		c.res.latency(float64(time.Since(c.src.handover))/1e6, c.src.pass)
	}
	c.windowClosed = false
	c.heap.observe()
}

func (c *collector) onWindow(rel magg.Relation, led magg.WindowLedger, rows []magg.WindowRow) {
	c.windowClosed = true
	c.res.rows += int64(len(rows))
	// Only a window that lies inside one pass is the same in every pass
	// and in a one-pass replay; the others are checked by their ledger.
	if pass := int(led.Start / c.epp); pass == int(led.End/c.epp) {
		c.grow(pass)
		var sum uint64
		for i := range rows {
			sum += hashRow(rel, led.Start%c.epp, rows[i].Key, rows[i].Aggs, rows[i].Sketch)
		}
		c.res.winSums[pass] += sum
		c.res.winRows[pass] += int64(len(rows))
	}
	if s := led.Stats; s.Offered != s.Processed+s.Dropped+s.Late {
		c.res.fail(1, "window %d: ledger %d != %d + %d + %d", led.Window, s.Offered, s.Processed, s.Dropped, s.Late)
	}
	if rel == c.last {
		c.res.windows++
	}
}

// checkPasses compares every replayed pass with pass 0: the records are
// the same, only the epoch numbers move, so the answers must be too.
func (r *runResult) checkPasses(sums []uint64, rows []int64, full int, what string) {
	for k := 1; k < full && k < len(sums); k++ {
		if sums[k] != sums[0] || rows[k] != rows[0] {
			miss := rows[0] - rows[k]
			if miss <= 0 {
				miss = 1
			}
			r.fail(miss, "pass %d %s differ from pass 0 (%d rows vs %d)", k, what, rows[k], rows[0])
		}
	}
}

// finish turns pass start times into per-pass durations. The time after
// the last record (final flush, store drain, last answers read) is shared out over the timed
// passes, so a backlog left for the end still counts against throughput.
func (r *runResult) finish(src *replay, end time.Time) {
	afterRun := src.doneAt
	r.timedPasses = src.timedPasses()
	r.tailNs = float64(end.Sub(afterRun))
	if r.timedPasses < 1 {
		r.fail(1, "no timed pass completed")
		return
	}
	share := r.tailNs / float64(r.timedPasses)
	for k := 1; k <= r.timedPasses; k++ {
		stop := afterRun
		if k+1 < len(src.started) {
			stop = src.started[k+1]
		}
		r.passNs = append(r.passNs, float64(stop.Sub(src.started[k]))+share)
		// The pass in chunks: the last one runs to the end of the pass.
		cuts := src.marks[k]
		if len(cuts) >= chunksPerPass {
			cuts = cuts[:chunksPerPass-1]
		}
		chunks := make([]float64, 0, chunksPerPass)
		from := src.started[k]
		for _, c := range cuts {
			chunks = append(chunks, float64(c.Sub(from)))
			from = c
		}
		r.chunkNs = append(r.chunkNs, append(chunks, float64(stop.Sub(from))))
	}
}

// runEngine drives one workload through Engine.Run.
func runEngine(p *prepared, budget time.Duration, total int) (*runResult, error) {
	w := p.w
	res := &runResult{}
	src := newReplay(p, budget, total)
	queries := w.queries()
	col := &collector{res: res, src: src, last: queries[len(queries)-1],
		epp: uint32(w.epochsPerPass()), heap: newHeapSampler(), windowed: w.windowed}
	exact := w.shedShare == 0 // without shedding every pass repeats pass 0

	opts := p.options()
	opts.OnResults = col.onResults
	var store *magg.EpochStore
	if w.durable {
		var err error
		store, err = magg.OpenEpochStore(filepath.Join(p.dir, "store"), magg.EpochStoreOptions{})
		if err != nil {
			return nil, err
		}
		defer store.Close()
		opts.Store = store
		// Deep enough that a slow fsync delays the drain at the end
		// instead of dropping epochs: an unpersisted epoch is a failure.
		opts.StoreQueue = 1 << 14
		opts.CheckpointPath = filepath.Join(p.dir, "engine.ckpt")
	}
	if w.windowed {
		opts.OnWindow = col.onWindow
	}
	eng, err := magg.NewEngine(w.sqls(), p.groups, opts)
	if err != nil {
		return nil, err
	}
	// The exact counts are read when the first timed pass ends, so they do
	// not depend on how many more passes the clock allowed: on a shedding
	// workload the policy's state carries on from pass to pass.
	snapshot := func() {
		st := eng.Stats()
		res.ops, res.exactOffered, res.exactAdmitted = st.Ops, st.Degradation.Offered, st.Degradation.Processed
	}
	src.onPassEnd = func(pass int) {
		if pass == 1 {
			snapshot()
		}
	}

	if err := eng.Run(src); err != nil {
		return nil, err
	}
	eng.SyncStore()
	res.finish(src, time.Now())

	st := eng.Stats()
	d := st.Degradation
	res.offered, res.admitted, res.dropped, res.late = d.Offered, d.Processed, d.Dropped, d.Late
	if res.exactOffered == 0 {
		snapshot() // a one-pass replay never ends a timed pass
	}
	res.heapBytes = col.heap.all
	passes := uint64(len(src.started))
	if d.Offered != d.Processed+d.Dropped+d.Late {
		res.fail(1, "ledger %d != %d + %d + %d", d.Offered, d.Processed, d.Dropped, d.Late)
	}
	if want := uint64(p.passing) * passes; d.Offered != want {
		res.fail(absDiff(d.Offered, want), "offered %d records, replayed %d", d.Offered, want)
	}
	if d.Late != 0 {
		res.fail(int64(d.Late), "%d late records", d.Late)
	}
	if exact && d.Dropped != 0 {
		res.fail(int64(d.Dropped), "%d records dropped without a budget", d.Dropped)
	}
	if want := int(passes) * w.epochsPerPass(); res.epochs != want {
		res.fail(absDiff(uint64(res.epochs), uint64(want)), "closed %d epochs, expected %d", res.epochs, want)
	}
	if exact {
		res.checkPasses(res.passSums, res.passRows, int(passes), "epoch rows")
		res.checkPasses(res.winSums, res.winRows, int(passes), "window rows")
	}
	if w.durable {
		dur := st.Durability
		res.unpersisted = len(dur.Unpersisted)
		if res.unpersisted > 0 || dur.Persisted != res.epochs {
			res.fail(int64(res.epochs-dur.Persisted), "persisted %d of %d epochs (%s)", dur.Persisted, res.epochs, dur.LastError)
		}
	}
	if st.ResultErrors != 0 {
		res.fail(int64(st.ResultErrors), "%d result errors", st.ResultErrors)
	}
	return res, nil
}

func absDiff(a, b uint64) int64 {
	if a > b {
		return int64(a - b)
	}
	return int64(b - a)
}

// parallelLag is how many epochs behind the router the client reads
// answers on pipeline-par. The router can run at most the two shards'
// rings, staging runs and in-worker runs ahead of the workers (about 11k
// records), well under two epochs of this workload; the mass check below
// would catch a read that came too early.
const parallelLag = 3

// parSource is the replay source for RunParallel plus the client side:
// it notes when each epoch ends, and reads, checks and drops each epoch's
// answers parallelLag epochs later, on the router's goroutine.
type parSource struct {
	*replay
	col      *collector
	agg      *magg.Aggregator
	queries  []magg.Relation
	started  bool
	cur      uint32
	counts   map[uint32]uint64 // records handed over per open epoch
	rollAt   map[uint32]int64  // ns since t0 when the epoch's successor arrived
	next     uint32            // oldest epoch not yet read
	t0       time.Time
	lastDone *[64]atomic.Int64 // per epoch mod 64: when its latest MergeRun returned
}

func (s *parSource) NextColumns(dst *stream.ColumnBatch, limit int) int {
	n := s.replay.NextColumns(dst, limit)
	if n == 0 {
		return 0
	}
	lo := 0
	for lo < n {
		e := dst.Time[lo] / s.epochLen
		if !s.started {
			s.started, s.cur, s.next = true, e, e
		}
		if e != s.cur {
			s.rollAt[s.cur] = int64(s.handover.Sub(s.t0))
			s.cur = e
			for s.next+parallelLag <= e {
				s.consume(s.next)
				s.next++
			}
		}
		hi := lo + 1
		for hi < n && dst.Time[hi]/s.epochLen == e {
			hi++
		}
		s.counts[e] += uint64(hi - lo)
		lo = hi
	}
	return n
}

// consume reads one finished epoch the way a client would: every query's
// rows, then release.
func (s *parSource) consume(epoch uint32) {
	res := s.col.res
	for _, q := range s.queries {
		s.col.checkRows(q, epoch, s.agg.Rows(q, epoch), s.counts[epoch])
	}
	s.agg.Drop(epoch)
	res.epochs++
	slot := &s.lastDone[epoch%64]
	if roll, ok := s.rollAt[epoch]; ok && epoch+1 >= s.col.epp {
		if done := slot.Load(); done >= roll {
			res.latency(float64(done-roll)/1e6, int(epoch+1)/int(s.col.epp))
		}
	}
	slot.Store(0)
	delete(s.counts, epoch)
	delete(s.rollAt, epoch)
	s.col.heap.observe()
}

// runParallel drives pipeline-par through ShardedLFTA.RunParallel with
// Aggregator.MergeRun as the run sink. Emission latency here is the time
// from the batch that ends an epoch to the last MergeRun of that epoch
// returning, i.e. until the epoch's answer is complete in the HFTA.
func runParallel(p *prepared, budget time.Duration, total int) (*runResult, error) {
	w := p.w
	res := &runResult{}
	queries := w.queries()
	agg, err := magg.NewAggregator(queries, magg.CountStar)
	if err != nil {
		return nil, err
	}
	plan, err := magg.Plan(queries, p.groups, memoryUnits, magg.DefaultParams())
	if err != nil {
		return nil, err
	}
	sh, err := magg.NewShardedLFTA(plan.Config, plan.Alloc, magg.CountStar, uint64(p.seed), nil, w.shards)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	var lastDone [64]atomic.Int64
	sh.SetRunSink(func(rel magg.Relation, epoch uint32, keys []uint32, aggs []int64) {
		agg.MergeRun(rel, epoch, keys, aggs)
		now := int64(time.Since(t0))
		slot := &lastDone[epoch%64]
		for {
			old := slot.Load()
			if now <= old || slot.CompareAndSwap(old, now) {
				break
			}
		}
	}, 0)

	rep := newReplay(p, budget, total)
	src := &parSource{
		replay: rep, agg: agg, queries: queries, t0: t0, lastDone: &lastDone,
		counts: map[uint32]uint64{}, rollAt: map[uint32]int64{},
		col: &collector{res: res, src: rep, epp: uint32(w.epochsPerPass()), heap: newHeapSampler()},
	}
	ops, err := sh.RunParallel(src, w.epochLen)
	if err != nil {
		return nil, err
	}
	for ; src.started && src.next <= src.cur; src.next++ {
		src.consume(src.next)
	}
	res.finish(rep, time.Now())

	passes := uint64(len(rep.started))
	res.ops, res.offered, res.admitted = ops, ops.Records, ops.Records
	res.exactOffered, res.exactAdmitted = ops.Records, ops.Records
	res.heapBytes = src.col.heap.all
	if want := uint64(w.records) * passes; ops.Records != want {
		res.fail(absDiff(ops.Records, want), "processed %d records, replayed %d", ops.Records, want)
	}
	if want := int(passes) * w.epochsPerPass(); res.epochs != want {
		res.fail(absDiff(uint64(res.epochs), uint64(want)), "closed %d epochs, expected %d", res.epochs, want)
	}
	res.checkPasses(res.passSums, res.passRows, int(passes), "epoch rows")
	return res, nil
}

// run dispatches on the workload's execution path.
func run(p *prepared, budget time.Duration, total int) (*runResult, error) {
	drive := runEngine
	if p.w.parallel {
		drive = runParallel
	}
	res, err := drive(p, budget, total)
	if err == nil {
		res.attempted = int64(res.offered) + res.rows + int64(res.epochs)
	}
	return res, err
}
