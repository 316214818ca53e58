package magg

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/attr"
	"repro/internal/gen"
	"repro/internal/hfta"
	"repro/internal/lfta"
	"repro/internal/query"
	"repro/internal/stream"
)

// Additional micro-benchmarks: HFTA merge, trace encoding and query
// parsing.

// BenchmarkHFTAMerge times the HFTA's whole share of one epoch: the
// evicted partials (8192, one query's share of a hostile-card epoch)
// arrive through MergeRun in runs of 256, the epoch is read out with Rows
// and dropped. Timing the merge alone would credit
// work moved from the merge into the read-out. Two shapes: every partial
// a distinct group (an eviction-bound epoch over a huge universe), and
// each group evicted four times. ns/partial is the figure to compare.
func BenchmarkHFTAMerge(b *testing.B) {
	const partials, runLen = 8192, 256
	rel := attr.MustParseSet("AB")
	for _, shape := range []struct {
		name    string
		repeats int
	}{{"distinct", 1}, {"repeat4", 4}} {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			groups := partials / shape.repeats
			keys := make([]uint32, 0, 2*partials)
			for i := 0; i < partials; i++ {
				g := rng.Intn(groups)
				if shape.repeats == 1 {
					g = i
				}
				keys = append(keys, uint32(mix(g)), uint32(mix(g)>>32))
			}
			aggs := make([]int64, partials)
			for i := range aggs {
				aggs[i] = int64(rng.Intn(100))
			}
			agg, err := hfta.New([]attr.Set{rel}, lfta.CountStar)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < partials; r += runLen {
					agg.MergeRun(rel, 0, keys[2*r:2*(r+runLen)], aggs[r:r+runLen])
				}
				if rows := agg.Rows(rel, 0); len(rows) == 0 {
					b.Fatal("no rows")
				}
				agg.Drop(0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*partials), "ns/partial")
		})
	}
}

// mix spreads a group number over 64 bits (splitmix64), so group keys
// look like draws from a large universe.
func mix(g int) uint64 {
	x := uint64(g) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func BenchmarkTraceEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	schema := stream.MustSchema(4)
	u, err := gen.UniformUniverse(rng, schema, 500, 0)
	if err != nil {
		b.Fatal(err)
	}
	recs := gen.Uniform(rng, u, 10000, 60)
	b.SetBytes(int64(len(recs) * 20))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := stream.WriteTrace(&buf, schema, recs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryParse(b *testing.B) {
	const sql = "select A, B, count(*) as cnt, avg(D) as len from R where C >= 1024 group by A, B, time/300 having cnt > 100"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := query.Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}
