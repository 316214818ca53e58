package magg

import (
	"math/rand"
	"testing"

	"repro/internal/attr"
	"repro/internal/collision"
	"repro/internal/cost"
	"repro/internal/feedgraph"
	"repro/internal/gen"
	"repro/internal/lfta"
	"repro/internal/spacealloc"
	"repro/internal/stream"
)

// Micro-benchmarks of the building blocks bench/'s per-layer metrics do
// not time — the space allocators, the collision model and the engine's
// admission over in-memory column batches — plus BenchmarkRuntimeRecord,
// the budget lane's one-record probe and cascade. bench/run.sh measures the product path end
// to end and layer by layer; cmd/maggbench times the paper's experiments.

// BenchmarkRuntimeRecord measures a full record through a three-level
// configuration (probe + cascades).
func BenchmarkRuntimeRecord(b *testing.B) {
	queries := []attr.Set{
		attr.MustParseSet("AB"), attr.MustParseSet("BC"),
		attr.MustParseSet("BD"), attr.MustParseSet("CD"),
	}
	cfg, err := feedgraph.ParseConfig("ABCD(AB BCD(BC BD CD))", queries)
	if err != nil {
		b.Fatal(err)
	}
	alloc := cost.Alloc{}
	for _, r := range cfg.Rels {
		alloc[r] = 1024
	}
	rt, err := lfta.New(cfg, alloc, lfta.CountStar, 3, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	recs := make([]stream.Record, 1024)
	for i := range recs {
		recs[i] = stream.Record{Attrs: []uint32{rng.Uint32() % 100, rng.Uint32() % 100, rng.Uint32() % 100, rng.Uint32() % 100}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Process(recs[i%len(recs)], 0)
	}
}

// BenchmarkAllocSL and BenchmarkAllocES compare heuristic vs exhaustive
// allocation latency on the deepest paper configuration.
func BenchmarkAllocSL(b *testing.B) { benchAlloc(b, spacealloc.SL) }
func BenchmarkAllocES(b *testing.B) { benchAlloc(b, spacealloc.ES) }

func benchAlloc(b *testing.B, s spacealloc.Scheme) {
	b.Helper()
	cfg, err := feedgraph.ParseConfig("(ABCD(AB BCD(BC BD CD)))", nil)
	if err != nil {
		b.Fatal(err)
	}
	groups := feedgraph.GroupCounts{
		attr.MustParseSet("AB"): 1846, attr.MustParseSet("BC"): 980,
		attr.MustParseSet("BD"): 870, attr.MustParseSet("CD"): 1240,
		attr.MustParseSet("BCD"): 1700, attr.MustParseSet("ABCD"): 2837,
	}
	p := cost.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spacealloc.Allocate(s, cfg, groups, 40000, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollisionPrecise vs BenchmarkCollisionCurve: the binomial sum
// against the fitted regression the optimizer actually evaluates.
func BenchmarkCollisionPrecise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		collision.Precise(2837, 1000)
	}
}

func BenchmarkCollisionCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		collision.Rate(2837, 1000)
	}
}

// BenchmarkEngineThroughput measures a planned engine (LFTA + HFTA)
// admitting pre-built stream.ColumnBatchLen column batches through
// ProcessColumnBatch, with no decode in front: one op is one batch, and
// ns/record is the cost per record.
func BenchmarkEngineThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	schema := stream.MustSchema(4)
	u, err := gen.UniformUniverse(rng, schema, 1000, 60)
	if err != nil {
		b.Fatal(err)
	}
	recs := gen.Uniform(rng, u, 65536, 0)
	queries := []Relation{MustRelation("AB"), MustRelation("BC"), MustRelation("CD")}
	groups, err := EstimateGroups(recs[:10000], queries)
	if err != nil {
		b.Fatal(err)
	}
	sqls := []string{
		"select A, B, count(*) as cnt from R group by A, B",
		"select B, C, count(*) as cnt from R group by B, C",
		"select C, D, count(*) as cnt from R group by C, D",
	}
	eng, err := NewEngine(sqls, groups, Options{M: 20000})
	if err != nil {
		b.Fatal(err)
	}
	batches := make([]stream.ColumnBatch, len(recs)/stream.ColumnBatchLen)
	for i := range batches {
		batches[i].Reset(schema.NumAttrs)
		for _, r := range recs[i*stream.ColumnBatchLen : (i+1)*stream.ColumnBatchLen] {
			batches[i].Append(r.Attrs, r.Time)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.ProcessColumnBatch(&batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stream.ColumnBatchLen), "ns/record")
}
