// Line rate: why the optimization matters. An LFTA with bounded
// processing capacity (weighted operations per second) drops whatever it
// cannot afford — the paper's Section 3.3 motivation. This example runs
// the same queries through the GCSL plan and the no-phantom plan at
// several capacities and reports drop rates via the engine's unified
// budget path, shows the multi-LFTA deployment (one shard per core, as
// Gigascope runs one LFTA per interface) absorbing the same load in
// parallel, and finishes with a sharded engine under one global budget —
// per-shard degradation ledgers summing exactly to the global one.
//
//	go run ./examples/line-rate
package main

import (
	"fmt"
	"log"

	magg "repro"
)

func main() {
	schema := magg.MustSchema(4)
	universe, err := magg.NewNestedUniverse(3, schema, []int{552, 1846, 2117, 2837}, 1500)
	if err != nil {
		log.Fatal(err)
	}
	records := magg.GenerateUniform(4, universe, 500000, 50) // 10k records/second

	queries := []magg.Relation{
		magg.MustRelation("A"), magg.MustRelation("B"),
		magg.MustRelation("C"), magg.MustRelation("D"),
	}
	groups, err := magg.EstimateGroups(records[:50000], queries)
	if err != nil {
		log.Fatal(err)
	}
	p := magg.DefaultParams()
	const m = 40000

	gcsl, err := magg.Plan(queries, groups, m, p)
	if err != nil {
		log.Fatal(err)
	}
	graph, err := magg.NewFeedingGraph(queries)
	if err != nil {
		log.Fatal(err)
	}
	noPhCfg, err := magg.ParseConfig("A B C D", queries)
	if err != nil {
		log.Fatal(err)
	}
	noPhAlloc, err := magg.Allocate(magg.AllocSL, noPhCfg, groups, m, p)
	if err != nil {
		log.Fatal(err)
	}
	_ = graph

	fmt.Printf("GCSL plan:      %s (modeled %.2f ops/record)\n", gcsl.Config, gcsl.Cost)
	noPhCost, _ := magg.PerRecordCost(noPhCfg, groups, noPhAlloc, p)
	fmt.Printf("no-phantom:     %s (modeled %.2f ops/record)\n\n", noPhCfg, noPhCost)

	rate := float64(len(records)) / 50 // records per stream second

	// The unified budget path: the engine enforces the capacity (c1 per
	// probe, c2 per transfer, refilled each stream second) and keeps the
	// Offered == Processed + Dropped + Late ledger. A fixed planner pins
	// each run to the plan under comparison; one epoch spans the trace.
	sqls := []string{
		"select A, count(*) as cnt from R group by A, time/100",
		"select B, count(*) as cnt from R group by B, time/100",
		"select C, count(*) as cnt from R group by C, time/100",
		"select D, count(*) as cnt from R group by D, time/100",
	}
	fixed := func(res *magg.PlanResult) magg.Planner {
		return func(*magg.FeedingGraph, magg.GroupCounts, int, magg.Params) (*magg.PlanResult, error) {
			return res, nil
		}
	}
	noPh := &magg.PlanResult{Config: noPhCfg, Alloc: noPhAlloc, Cost: noPhCost}
	runAt := func(plan *magg.PlanResult, budget float64, shards int) *magg.Engine {
		eng, err := magg.NewEngine(sqls, groups, magg.Options{
			M: m, Params: p, Seed: 11,
			Planner: fixed(plan),
			Budget:  budget,
			Shards:  shards,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := eng.Run(magg.NewSliceSource(records)); err != nil {
			log.Fatal(err)
		}
		return eng
	}

	fmt.Println("drop rates under bounded LFTA capacity:")
	fmt.Println("capacity(xrate)   GCSL      no-phantom")
	for _, mult := range []float64{4, 8, 16, 32} {
		budget := rate * mult
		row := fmt.Sprintf("%-17v", mult)
		for _, plan := range []*magg.PlanResult{gcsl, noPh} {
			d := runAt(plan, budget, 0).Stats().Degradation
			row += fmt.Sprintf("%-10.2f", d.SheddingRate()*100)
		}
		fmt.Println(row + "  (%)")
	}

	// Multi-LFTA deployment: 4 shards processing in parallel with
	// per-shard run buffers, exact results at the shared HFTA.
	agg, err := magg.NewAggregator(queries, magg.CountStar)
	if err != nil {
		log.Fatal(err)
	}
	sharded, err := magg.NewShardedLFTA(gcsl.Config, gcsl.Alloc, magg.CountStar, 11, nil, 4)
	if err != nil {
		log.Fatal(err)
	}
	sharded.SetRunSink(agg.MergeRun, 0)
	ops, err := sharded.RunParallel(magg.NewSliceSource(records), 10)
	if err != nil {
		log.Fatal(err)
	}
	want := magg.Reference(records, queries, magg.CountStar, 10)
	fmt.Printf("\n4-shard parallel run: %d records, %.2f ops/record, results exact: %v\n",
		ops.Records, ops.PerRecordCost(p.C1, p.C2), magg.RowsEqual(agg.AllRows(), want))

	// Sharded engine under ONE global budget: the budget is split across
	// shards in proportion to measured demand and reconciled every epoch,
	// and every shard keeps its own degradation ledger. The per-shard
	// ledgers sum exactly to the global Offered == Processed + Dropped +
	// Late identity — overload control is unified, not per-shard ad hoc.
	// (At 1x rate the single engine above would drop >80%; sharding both
	// spreads the budget and shrinks eviction traffic, so far less sheds.)
	eng := runAt(gcsl, rate, 4)
	total := eng.Stats().Degradation
	fmt.Printf("\n4-shard engine, one global budget (1x rate):\n")
	fmt.Printf("  global: offered %d = processed %d + dropped %d + late %d\n",
		total.Offered, total.Processed, total.Dropped, total.Late)
	for i, d := range eng.ShardDegradations() {
		fmt.Printf("  shard %d: offered %d, processed %d, dropped %d\n",
			i, d.Offered, d.Processed, d.Dropped)
	}
}
