package lfta_test

import (
	"math/rand"
	"testing"

	"repro/internal/attr"
	"repro/internal/cost"
	"repro/internal/feedgraph"
	"repro/internal/gen"
	"repro/internal/lfta"
	"repro/internal/stream"
)

// BenchmarkCascade measures the LFTA end to end — raw probes, the victim
// cascade, HFTA transfer buffering and the epoch flush, FlushEpoch every
// 8192 records — in ns/record, on ABCD(AB BCD(BC BD CD)) with 2000 slots
// per table. Records enter through ProcessColumns in 1024-record batches
// or one at a time through Process, on uniform data (20000 groups, about
// ten per slot: eviction-heavy) and on the clustered flow trace of the
// paper's surrogate dataset.
func BenchmarkCascade(b *testing.B) {
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
		alloc[r] = 2000
	}
	const nrecs = 1 << 17
	rng := rand.New(rand.NewSource(11))
	uni, err := gen.UniformUniverse(rng, stream.MustSchema(4), 20000, 1000)
	if err != nil {
		b.Fatal(err)
	}
	paper, err := gen.PaperUniverse(11)
	if err != nil {
		b.Fatal(err)
	}
	flows, err := gen.Flows(rng, paper, gen.FlowConfig{NumRecords: nrecs, Duration: 1, MeanFlowLen: 30, Concurrency: 64})
	if err != nil {
		b.Fatal(err)
	}
	data := []struct {
		name string
		recs []stream.Record
	}{
		{"uniform", gen.Uniform(rng, uni, nrecs, 1)},
		{"clustered", flows.Records},
	}
	for _, d := range data {
		for _, path := range []string{"columns", "process"} {
			b.Run(d.name+"/"+path, func(b *testing.B) {
				benchCascade(b, cfg, alloc, d.recs, path == "columns")
			})
		}
	}
}

func benchCascade(b *testing.B, cfg *feedgraph.Config, alloc cost.Alloc, recs []stream.Record, columnar bool) {
	const batchLen, epochLen = 1024, 8192
	rt, err := lfta.New(cfg, alloc, lfta.CountStar, 3, nil)
	if err != nil {
		b.Fatal(err)
	}
	rt.SetRunSink(func(attr.Set, uint32, []uint32, []int64) {}, 0)
	var batches []*stream.ColumnBatch
	for o := 0; o < len(recs); o += batchLen {
		cb := &stream.ColumnBatch{}
		cb.Reset(4)
		for _, rec := range recs[o:min(o+batchLen, len(recs))] {
			cb.Append(rec.Attrs, rec.Time)
		}
		batches = append(batches, cb)
	}
	cols := make([][]uint32, 4)
	epoch := uint32(0)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(batchLen, b.N-done)
		if columnar {
			cb := batches[(done/batchLen)%len(batches)]
			for j := range cols {
				cols[j] = cb.Cols[j][:n]
			}
			rt.ProcessColumns(cols, epoch)
		} else {
			o := done % len(recs)
			for _, rec := range recs[o : o+n] {
				rt.Process(rec, epoch)
			}
		}
		done += n
		if done%epochLen == 0 || done == b.N {
			rt.FlushEpoch()
			epoch++
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/record")
}
