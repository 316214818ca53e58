package experiments

import (
	"fmt"
	"time"

	"repro/internal/attr"
	"repro/internal/choose"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/feedgraph"
	"repro/internal/gen"
	"repro/internal/stream"
)

// Extension experiments beyond the paper's evaluation.
//
// ext-drops: the paper's motivation made concrete — at a fixed LFTA
// processing capacity, how many records does each configuration drop?
//
// ext-scale: how planning cost and benefit scale with the number of
// queries (the feeding graph grows as 2^q, which is why EPES is a
// reference, not an algorithm).
//
// ext-zipf: sensitivity of the uniform-arrival cost model to group
// popularity skew.

func init() {
	Registry["ext-drops"] = ExtDrops
	Registry["ext-scale"] = ExtScale
	Registry["ext-zipf"] = ExtZipf
}

// ExtDrops compares drop rates of the GCSL plan and the no-phantom plan
// under a sweep of LFTA capacities (weighted operations per stream
// second), using the engine's unified budget path — the same overload
// control production runs use, single or sharded.
func ExtDrops(ctx *Context) (*Table, error) {
	u, recs, err := ctx.synthData()
	if err != nil {
		return nil, err
	}
	graph, err := feedgraph.New(singletonQueries())
	if err != nil {
		return nil, err
	}
	groups := allGraphGroups(u, graph)
	p := defaultParams()
	const m = 40000

	gcsl, err := choose.GCSL(graph, groups, m, p)
	if err != nil {
		return nil, err
	}
	noPh, err := choose.NoPhantom(graph, groups, m, p, "SL")
	if err != nil {
		return nil, err
	}

	// One epoch spanning the whole trace: drop behaviour under a pure
	// intra-epoch budget, comparable across plans.
	sqls := []string{
		"select A, count(*) as cnt from R group by A, time/1000000",
		"select B, count(*) as cnt from R group by B, time/1000000",
		"select C, count(*) as cnt from R group by C, time/1000000",
		"select D, count(*) as cnt from R group by D, time/1000000",
	}
	fixed := func(res *choose.Result) core.Planner {
		return func(*feedgraph.Graph, feedgraph.GroupCounts, int, cost.Params) (*choose.Result, error) {
			return res, nil
		}
	}

	// Arrival rate of the synthetic trace (records per stream second).
	duration := recs[len(recs)-1].Time + 1
	rate := float64(len(recs)) / float64(duration)

	t := &Table{
		ID:      "ext-drops",
		Title:   "Drop rate vs LFTA capacity (weighted ops per second)",
		Columns: []string{"capacity (xrate)", "GCSL drop", "no-phantom drop"},
	}
	multipliers := []float64{2, 4, 8, 16, 32}
	if ctx.Quick {
		multipliers = []float64{2, 8, 32}
	}
	for _, mult := range multipliers {
		budget := rate * mult
		row := []string{fmtF(mult)}
		for _, plan := range []*choose.Result{gcsl, noPh} {
			eng, err := core.New(sqls, groups, core.Options{
				M: m, Params: p, Seed: 71,
				Planner: fixed(plan),
				Budget:  budget,
			})
			if err != nil {
				return nil, err
			}
			if err := eng.Run(stream.NewSliceSource(recs)); err != nil {
				return nil, err
			}
			d := eng.Stats().Degradation
			row = append(row, fmtPct(float64(d.Dropped)/float64(d.Offered)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("GCSL plan %q (modeled %.2f/record) vs no-phantom (modeled %.2f/record)", gcsl.Config, gcsl.Cost, noPh.Cost),
		"lower per-record cost keeps more of the stream at every capacity — the paper's Section 3.3 motivation")
	return t, nil
}

// ExtScale sweeps the number of singleton queries and reports the size of
// the search space, GCSL's planning time, and the modeled benefit of
// phantoms.
func ExtScale(ctx *Context) (*Table, error) {
	maxQ := 7
	if ctx.Quick {
		maxQ = 5
	}
	schema := stream.MustSchema(maxQ)
	rng := newRng(ctx.Seed + 17)
	u, err := gen.UniformUniverse(rng, schema, 3000, 40)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "ext-scale",
		Title:   "Scaling with the number of queries (M=40000)",
		Columns: []string{"queries", "candidate phantoms", "phantoms chosen", "cost vs no-phantom"},
	}
	p := defaultParams()
	for q := 2; q <= maxQ; q++ {
		var queries []attr.Set
		for i := 0; i < q; i++ {
			queries = append(queries, attr.MakeSet(attr.ID(i)))
		}
		graph, err := feedgraph.New(queries)
		if err != nil {
			return nil, err
		}
		groups := allGraphGroups(u, graph)
		start := time.Now()
		plan, err := choose.GCSL(graph, groups, 40000, p)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		base, err := choose.NoPhantom(graph, groups, 40000, p, "SL")
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(q),
			fmt.Sprint(len(graph.Phantoms)),
			fmt.Sprint(len(plan.Config.Phantoms())),
			fmtF(plan.Cost / base.Cost),
		})
		t.Timings = append(t.Timings, fmt.Sprintf("GCSL planned %d queries in %v", q, elapsed.Round(time.Microsecond)))
	}
	t.Notes = append(t.Notes,
		"candidate phantoms grow as 2^q - q - 1; GCSL stays in the milliseconds while EPES would enumerate 2^(2^q-q-1) configurations")
	return t, nil
}

// ExtZipf measures how the uniform-arrival model holds up when group
// popularity is Zipf-skewed: the same GCSL plan is replayed against
// uniform and increasingly skewed streams over one universe.
func ExtZipf(ctx *Context) (*Table, error) {
	u, _, err := ctx.synthData()
	if err != nil {
		return nil, err
	}
	graph, err := feedgraph.New(singletonQueries())
	if err != nil {
		return nil, err
	}
	groups := allGraphGroups(u, graph)
	p := defaultParams()
	const m = 40000
	plan, err := choose.GCSL(graph, groups, m, p)
	if err != nil {
		return nil, err
	}

	n := 1000000
	if ctx.Quick {
		n = 100000
	}
	t := &Table{
		ID:      "ext-zipf",
		Title:   "Cost model sensitivity to group-popularity skew (GCSL plan)",
		Columns: []string{"skew", "measured cost/record", "vs modeled"},
	}
	skews := []float64{0, 1.2, 1.5, 2.0, 3.0}
	if ctx.Quick {
		skews = []float64{0, 1.5, 3.0}
	}
	for _, s := range skews {
		var recs []stream.Record
		if s == 0 {
			recs = gen.Uniform(newRng(ctx.Seed+31), u, n, 62)
		} else {
			recs, err = gen.Zipf(newRng(ctx.Seed+31), u, n, 62, s)
			if err != nil {
				return nil, err
			}
		}
		actual, err := runActual(plan.Config, plan.Alloc, recs, p, 401)
		if err != nil {
			return nil, err
		}
		label := "uniform"
		if s > 0 {
			label = fmt.Sprintf("zipf %.1f", s)
		}
		t.Rows = append(t.Rows, []string{label, fmtF(actual), fmtF(actual / plan.Cost)})
	}
	t.Notes = append(t.Notes,
		"skew concentrates probes on few hot groups that stay resident, so the uniform model is conservative: measured cost falls as skew grows")
	return t, nil
}
