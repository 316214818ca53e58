package lfta_test

import (
	"math/rand"
	"testing"

	"repro/internal/attr"
	"repro/internal/cost"
	"repro/internal/feedgraph"
	"repro/internal/gen"
	"repro/internal/hashtab"
	"repro/internal/hfta"
	"repro/internal/lfta"
	"repro/internal/stream"
)

// Property: the batched record path (ProcessColumns → ProbeColumnsSelInto
// over whole batches, cascading run-sized victim runs) is
// indistinguishable from the per-record path (Process → ProbeInto,
// cascading one-entry victim runs), and both match the oracle — not just
// in the per-epoch HFTA answers, but in every per-table
// probe/hit/insert/collision/eviction counter and in the runtime's own
// cost ledger. The feeding graph is a tree, so batching reorders probes
// only ACROSS tables, never within one; this test pins that argument
// against the implementation for random workloads, aggregate shapes,
// cascade depths, and run boundaries (TestCascadeMatchesReference holds
// both to the depth-first model). Runs under -race in CI via the
// internal/... race job.
//
// Since the tables grew vector tag-scan kernels, the whole suite runs
// once per available kernel (generic SWAR always; AVX2/NEON when the
// host has it), so a kernel bug cannot hide behind the portable path
// that CI's SIMD-disabled job exercises.
func TestBatchedScalarOracleEquivalence(t *testing.T) {
	defer hashtab.SetSIMD(hashtab.SIMDEnabled())
	for _, simd := range kernelSelections() {
		hashtab.SetSIMD(simd)
		t.Run("kernel="+hashtab.KernelName(), testBatchedScalarOracleEquivalence)
	}
}

// kernelSelections returns the SetSIMD values to sweep: the generic
// kernel always, plus the vector kernel when this CPU has one.
func kernelSelections() []bool {
	ks := []bool{false}
	if hashtab.SIMDAvailable() {
		ks = append(ks, true)
	}
	return ks
}

func testBatchedScalarOracleEquivalence(t *testing.T) {
	type shape struct {
		spec    string
		queries []attr.Set
		aggs    []lfta.AggSpec
	}
	shapes := []shape{
		{
			// Flat: three queries fed by one raw scan, count(*) deltas
			// (the constant-delta fast path).
			spec:    "ABCD(AB BC CD)",
			queries: []attr.Set{attr.MustParseSet("AB"), attr.MustParseSet("BC"), attr.MustParseSet("CD")},
			aggs:    lfta.CountStar,
		},
		{
			// Deep: a three-level cascade where AB is both a query and a
			// feeder, with attribute-valued Sum/Min/Max aggregates (the
			// per-record delta-run path).
			spec: "ABCD(ABC(AB(A)) CD)",
			queries: []attr.Set{
				attr.MustParseSet("AB"), attr.MustParseSet("A"), attr.MustParseSet("CD"),
			},
			aggs: []lfta.AggSpec{
				{Op: hashtab.Sum, Input: -1},
				{Op: hashtab.Sum, Input: 2},
				{Op: hashtab.Min, Input: 1},
				{Op: hashtab.Max, Input: 3},
			},
		},
	}
	for si, sh := range shapes {
		cfg, err := feedgraph.ParseConfig(sh.spec, sh.queries)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			rng := rand.New(rand.NewSource(4200 + int64(si*10+trial)))
			schema := stream.MustSchema(4)
			// Trial 0 draws from a tiny universe so every batch run is
			// dominated by duplicate keys — the same group hit repeatedly
			// within one commit pass, where a stale setup-pass decision
			// (group scanned before an earlier duplicate installed) would
			// diverge from the scalar path. Later trials are sparse.
			groups := 40 + rng.Intn(500)
			if trial == 0 {
				groups = 5 + rng.Intn(10)
			}
			u, err := gen.UniformUniverse(rng, schema, groups, 30)
			if err != nil {
				t.Fatal(err)
			}
			nrecs := 3000 + rng.Intn(9000)
			recs := gen.Uniform(rng, u, nrecs, uint32(20+rng.Intn(60)))
			alloc := cost.Alloc{}
			for i, r := range cfg.Rels {
				alloc[r] = 7 + i*5 + rng.Intn(50) // tiny tables: heavy eviction traffic
			}
			const epochLen = 10
			seed := uint64(5000 + trial)

			want := hfta.Reference(recs, sh.queries, sh.aggs, epochLen)

			// Scalar: record-at-a-time through Process.
			scalarAgg, err := hfta.New(sh.queries, sh.aggs)
			if err != nil {
				t.Fatal(err)
			}
			scalar, err := lfta.New(cfg, alloc, sh.aggs, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			scalar.SetRunSink(scalarAgg.MergeRun, 32)
			clock := stream.NewClock(epochLen)
			for _, rec := range recs {
				epoch, rolled := clock.Advance(rec.Time)
				if rolled {
					scalar.FlushEpoch()
				}
				scalar.Process(rec, epoch)
			}
			scalar.FlushEpoch()

			// Batched: the same stream sliced into column-major runs of
			// random length (1..600, spanning partial and whole selection
			// words), each fed through ProcessColumns. Epoch boundaries
			// always fall between runs, as the pipeline guarantees.
			batchAgg, err := hfta.New(sh.queries, sh.aggs)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := lfta.New(cfg, alloc, sh.aggs, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			batched.SetRunSink(batchAgg.MergeRun, 32)
			clock = stream.NewClock(epochLen)
			const width = 4
			var run stream.ColumnBatch
			run.Reset(width)
			runEpoch := uint32(0)
			flushRun := func() {
				if run.Len() > 0 {
					batched.ProcessColumns(run.Cols, runEpoch)
					run.Reset(width)
				}
			}
			limit := 1 + rng.Intn(600)
			for _, rec := range recs {
				epoch, rolled := clock.Advance(rec.Time)
				if rolled {
					flushRun()
					batched.FlushEpoch()
				}
				if epoch != runEpoch || run.Len() >= limit {
					flushRun()
					runEpoch = epoch
					limit = 1 + rng.Intn(600)
				}
				run.Append(rec.Attrs, rec.Time)
			}
			flushRun()
			batched.FlushEpoch()

			if !hfta.Equal(scalarAgg.AllRows(), want) {
				t.Fatalf("shape %d trial %d: scalar rows differ from oracle", si, trial)
			}
			if !hfta.Equal(batchAgg.AllRows(), scalarAgg.AllRows()) {
				t.Fatalf("shape %d trial %d: batched rows differ from scalar", si, trial)
			}
			if so, bo := scalar.Ops(), batched.Ops(); so != bo {
				t.Fatalf("shape %d trial %d: ops diverge: scalar %+v batched %+v", si, trial, so, bo)
			}
			sstats, bstats := scalar.TableStats(), batched.TableStats()
			for rel, ss := range sstats {
				if bs := bstats[rel]; bs != ss {
					t.Fatalf("shape %d trial %d: table %v stats diverge:\nscalar %+v\nbatch  %+v", si, trial, rel, ss, bs)
				}
			}
		}
	}
}
