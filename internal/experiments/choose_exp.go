package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/attr"
	"repro/internal/choose"
	"repro/internal/cost"
	"repro/internal/feedgraph"
	"repro/internal/lfta"
	"repro/internal/stream"
)

// phiSweep is Figure 11's φ range.
func phiSweep(quick bool) []float64 {
	if quick {
		return []float64{0.6, 0.9, 1.2, 1.3}
	}
	return []float64{0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3}
}

// singletonQueries is the synthetic workload's query set {A, B, C, D}.
func singletonQueries() []attr.Set {
	return []attr.Set{
		attr.MustParseSet("A"), attr.MustParseSet("B"),
		attr.MustParseSet("C"), attr.MustParseSet("D"),
	}
}

// pairQueries is the real-data workload's query set {AB, BC, BD, CD}.
func pairQueries() []attr.Set {
	return []attr.Set{
		attr.MustParseSet("AB"), attr.MustParseSet("BC"),
		attr.MustParseSet("BD"), attr.MustParseSet("CD"),
	}
}

func (c *Context) epesSteps() int {
	if c.Quick {
		return 30
	}
	return 50
}

// Fig11 reproduces Figure 11: modeled cost of GCSL, GCPL and GS(φ) on the
// synthetic dataset with queries {A,B,C,D} and M = 40,000, normalized by
// the EPES optimum.
func Fig11(ctx *Context) (*Table, error) {
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

	start := time.Now()
	opt, err := choose.EPES(graph, groups, m, p, ctx.epesSteps())
	if err != nil {
		return nil, err
	}
	epesTime := time.Since(start)

	start = time.Now()
	gcsl, err := choose.GCSL(graph, groups, m, p)
	if err != nil {
		return nil, err
	}
	gcslTime := time.Since(start)
	gcpl, err := choose.GC(graph, groups, m, p, "PL")
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "fig11",
		Title:   "Phantom choosing: relative modeled cost vs EPES (M=40000)",
		Columns: []string{"phi", "GCSL", "GCPL", "GS"},
	}
	for _, phi := range phiSweep(ctx.Quick) {
		gs, err := choose.GS(graph, groups, m, p, phi)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmtF(phi),
			fmtF(gcsl.Cost / opt.Cost),
			fmtF(gcpl.Cost / opt.Cost),
			fmtF(gs.Cost / opt.Cost),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("GCSL config %q; EPES config %q", gcsl.Config, opt.Config),
		fmt.Sprintf("planning time: GCSL %v, EPES %v (paper: GCSL sub-millisecond)", gcslTime, epesTime))
	return t, nil
}

// Fig12 reproduces Figure 12: the cost trajectory as each phantom is
// chosen, for GCSL, GCPL and GS at several φ, normalized by EPES.
func Fig12(ctx *Context) (*Table, error) {
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

	opt, err := choose.EPES(graph, groups, m, p, ctx.epesSteps())
	if err != nil {
		return nil, err
	}
	series := []struct {
		name string
		res  *choose.Result
	}{}
	gcsl, err := choose.GCSL(graph, groups, m, p)
	if err != nil {
		return nil, err
	}
	series = append(series, struct {
		name string
		res  *choose.Result
	}{"GCSL", gcsl})
	for _, phi := range []float64{0.6, 1.0, 1.3} {
		gs, err := choose.GS(graph, groups, m, p, phi)
		if err != nil {
			return nil, err
		}
		series = append(series, struct {
			name string
			res  *choose.Result
		}{fmt.Sprintf("GS phi=%.1f", phi), gs})
	}

	t := &Table{
		ID:      "fig12",
		Title:   "Phantom choosing process: relative cost vs #phantoms chosen",
		Columns: []string{"algorithm", "step", "added", "relative cost"},
	}
	for _, s := range series {
		for i, step := range s.res.Trace {
			added := "-"
			if step.Added != 0 {
				added = step.Added.String()
			}
			t.Rows = append(t.Rows, []string{
				s.name, fmt.Sprint(i), added, fmtF(step.Cost / opt.Cost),
			})
		}
	}
	t.Notes = append(t.Notes, "the first phantom brings the largest decrease (paper Figure 12)")
	return t, nil
}

// runActual streams records through a configuration and returns the
// measured per-record cost (probes·c1 + transfers·c2)/n, the paper's
// "actual cost", feeding them in column batches as the engine does. The
// final epoch flush is excluded, matching the paper's intra-epoch focus.
func runActual(cfg *feedgraph.Config, alloc cost.Alloc, recs []stream.Record, p cost.Params, seed uint64) (float64, error) {
	rt, err := lfta.New(cfg, alloc, lfta.CountStar, seed, nil)
	if err != nil {
		return 0, err
	}
	src := stream.NewSliceSource(recs)
	var b stream.ColumnBatch
	for stream.ReadColumns(src, &b, stream.ColumnBatchLen) > 0 {
		rt.ProcessColumns(b.Cols, 0)
	}
	return rt.Ops().PerRecordCost(p.C1, p.C2), nil
}

// measuredComparison runs Figures 13 and 14: actual costs of GCSL, the
// best-φ GS, and the no-phantom baseline, normalized by the actual cost of
// the EPES-chosen configuration, across the memory sweep.
func measuredComparison(ctx *Context, id, title string, queries []attr.Set,
	groups feedgraph.GroupCounts, recs []stream.Record, p cost.Params) (*Table, error) {
	graph, err := feedgraph.New(queries)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"M", "GCSL", "GS(best phi)", "no phantom"},
	}
	for _, m := range ctx.mSweep() {
		opt, err := choose.EPES(graph, groups, m, p, ctx.epesSteps())
		if err != nil {
			return nil, err
		}
		optActual, err := runActual(opt.Config, opt.Alloc, recs, p, 101)
		if err != nil {
			return nil, err
		}
		gcsl, err := choose.GCSL(graph, groups, m, p)
		if err != nil {
			return nil, err
		}
		gcslActual, err := runActual(gcsl.Config, gcsl.Alloc, recs, p, 102)
		if err != nil {
			return nil, err
		}
		// GS: the best φ per budget, as the paper plots ("only the one
		// with the lowest cost at each value of M is presented").
		gsActual := math.Inf(1)
		for _, phi := range phiSweep(ctx.Quick) {
			gs, err := choose.GS(graph, groups, m, p, phi)
			if err != nil {
				return nil, err
			}
			a, err := runActual(gs.Config, gs.Alloc, recs, p, 103)
			if err != nil {
				return nil, err
			}
			gsActual = math.Min(gsActual, a)
		}
		noPh, err := choose.NoPhantom(graph, groups, m, p, "SL")
		if err != nil {
			return nil, err
		}
		noPhActual, err := runActual(noPh.Config, noPh.Alloc, recs, p, 104)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(m),
			fmtF(gcslActual / optActual),
			fmtF(gsActual / optActual),
			fmtF(noPhActual / optActual),
		})
	}
	return t, nil
}

// Fig13 reproduces Figure 13: measured costs on the synthetic dataset,
// queries {A, B, C, D}.
func Fig13(ctx *Context) (*Table, error) {
	u, recs, err := ctx.synthData()
	if err != nil {
		return nil, err
	}
	graph, err := feedgraph.New(singletonQueries())
	if err != nil {
		return nil, err
	}
	groups := allGraphGroups(u, graph)
	t, err := measuredComparison(ctx, "fig13",
		"Measured relative cost on synthetic data (normalized by EPES config)",
		singletonQueries(), groups, recs, defaultParams())
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"paper: GCSL ≤3x optimal, GS up to 6x; no-phantom more than an order of magnitude worse than GCSL")
	return t, nil
}

// Fig14 reproduces Figure 14: measured costs on the (surrogate) real
// trace, queries {AB, BC, BD, CD}, with flow length derived from the
// trace.
func Fig14(ctx *Context) (*Table, error) {
	u, ft, err := ctx.paperData()
	if err != nil {
		return nil, err
	}
	graph, err := feedgraph.New(pairQueries())
	if err != nil {
		return nil, err
	}
	groups := allGraphGroups(u, graph)
	p := defaultParams()
	la := ft.AvgFlowLength()
	p.FlowLen = func(attr.Set) float64 { return la }
	t, err := measuredComparison(ctx, "fig14",
		"Measured relative cost on the real trace (normalized by EPES config)",
		pairQueries(), groups, ft.Records, p)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("trace: %d records, average flow length %.1f", len(ft.Records), la),
		"paper: GCSL outperforms GS; improvement up to ~100x over no-phantom")
	return t, nil
}
