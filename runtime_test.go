package magg

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/selvec"
	"repro/internal/stream"
)

// drive feeds recs in arrival order the way the engine's scalar lane
// does: process per record under the stream clock's epoch, flush at every
// epoch boundary and once at the end.
func drive(recs []Record, epochLen uint32, process func(Record, uint32), flush func()) {
	clock := stream.NewClock(epochLen)
	for _, rec := range recs {
		epoch, rolled := clock.Advance(rec.Time)
		if rolled {
			flush()
		}
		process(rec, epoch)
	}
	flush()
}

func TestFacadeLFTAPipeline(t *testing.T) {
	recs, queries, groups := facadeWorkload(t)
	plan, err := Plan(queries, groups, 20000, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregator(queries, CountStar)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewLFTA(plan.Config, plan.Alloc, CountStar, 3, agg.MergeRun)
	if err != nil {
		t.Fatal(err)
	}
	drive(recs, 10, rt.Process, rt.FlushEpoch)
	want := Reference(recs, queries, CountStar, 10)
	if !RowsEqual(agg.AllRows(), want) {
		t.Error("facade pipeline differs from reference")
	}
}

func TestFacadeShardedParallel(t *testing.T) {
	recs, queries, groups := facadeWorkload(t)
	plan, err := Plan(queries, groups, 20000, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregator(queries, CountStar)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShardedLFTA(plan.Config, plan.Alloc, CountStar, 3, agg.MergeRun, 4)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := s.RunParallel(NewSliceSource(recs), 10)
	if err != nil {
		t.Fatal(err)
	}
	if ops.Records != uint64(len(recs)) {
		t.Errorf("records = %d", ops.Records)
	}
	if !RowsEqual(agg.AllRows(), Reference(recs, queries, CountStar, 10)) {
		t.Error("sharded facade pipeline differs from reference")
	}
}

// shardedFixture is the 4-shard deployment the sharded timing and
// allocation gates drive: a planned LFTA over a fixed 200k-record uniform
// trace, sealing runs into one HFTA. Every pass ends in a flush, so the
// tables start the next pass empty.
type shardedFixture struct {
	recs []Record
	cols [][]uint32 // recs transposed, one column per attribute
	src  *stream.SliceSource
	agg  *Aggregator
	s    *ShardedLFTA
	six  []int32
	all  selvec.Bitmap
}

func newShardedFixture(t *testing.T) *shardedFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	u, err := gen.UniformUniverse(rng, stream.MustSchema(4), 2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Uniform(rng, u, 200000, 50)
	queries := []Relation{MustRelation("AB"), MustRelation("BC"), MustRelation("CD")}
	groups, err := EstimateGroups(recs[:20000], queries)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(queries, groups, 20000, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregator(queries, CountStar)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShardedLFTA(plan.Config, plan.Alloc, CountStar, 5, agg.MergeRun, 4)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([][]uint32, len(recs[0].Attrs))
	for a := range cols {
		cols[a] = make([]uint32, len(recs))
		for i, rec := range recs {
			cols[a][i] = rec.Attrs[a]
		}
	}
	return &shardedFixture{recs: recs, cols: cols, src: NewSliceSource(recs), agg: agg, s: s,
		six: make([]int32, len(recs))}
}

// parallel is one RunParallel pass over the trace.
func (f *shardedFixture) parallel(t *testing.T) {
	f.agg.Reset()
	f.src.Reset()
	if _, err := f.s.RunParallel(f.src, 10); err != nil {
		t.Fatal(err)
	}
}

// sequential is the same deployment on one goroutine: ShardColumns
// routes the whole trace, then every record goes through its shard's
// Process under the stream clock.
func (f *shardedFixture) sequential() {
	f.agg.Reset()
	n := len(f.recs)
	f.all = selvec.Grow(f.all, n)
	f.all.SetAll(n)
	f.s.ShardColumns(f.cols, n, f.all, f.six)
	i := 0
	drive(f.recs, 10, func(rec Record, epoch uint32) {
		f.s.Shard(int(f.six[i])).Process(rec, epoch)
		i++
	}, f.s.FlushEpoch)
}

// TestShardedParallelSpeedup asserts the pipelined RunParallel path beats
// sequential routing of the same deployment by ≥1.5× at 4 shards. The
// measurement always runs; the assertion is skipped on hosts without
// enough CPUs to give the four shard workers and the router their own
// cores (a time-sliced pipeline can only tie sequential at best).
func TestShardedParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement needs the full trace")
	}
	f := newShardedFixture(t)
	best := func(pass func()) time.Duration {
		d := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			pass()
			d = min(d, time.Since(start))
		}
		return d
	}
	f.parallel(t) // warm pools before timing
	seq := best(f.sequential)
	par := best(func() { f.parallel(t) })
	speedup := float64(seq) / float64(par)
	t.Logf("4 shards over 200k records: sequential %v, parallel %v, speedup %.2fx (GOMAXPROCS=%d)",
		seq, par, speedup, runtime.GOMAXPROCS(0))
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("parallel speedup assertion needs ≥4 CPUs, have %d", runtime.GOMAXPROCS(0))
	}
	if speedup < 1.5 {
		t.Errorf("parallel speedup %.2fx below the 1.5x floor", speedup)
	}
}

// TestShardedSteadyStateAllocs is the allocation regression gate for the
// pipelined sharded ingest path: after one warm-up pass (which sizes every
// pooled structure — hash tables, eviction run buffers, SPSC run batches,
// HFTA logs), a full 200k-record RunParallel pass must run effectively
// allocation-free. The bound is a hard budget per *pass*, not per record:
// 200 allocations over 200k records is 0.001 allocs/record, three orders
// of magnitude below the pre-pooling figure (~3800 per pass), and loose
// enough to absorb the per-pass worker goroutine spawns and scheduler
// jitter.
func TestShardedSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs the full trace")
	}
	f := newShardedFixture(t)
	pass := func() { f.parallel(t) }
	pass() // warm up pools to steady state
	if avg := testing.AllocsPerRun(3, pass); avg > 200 {
		t.Errorf("%v allocs per 200k-record pass, budget 200 — pooled buffers are churning again", avg)
	}
}
