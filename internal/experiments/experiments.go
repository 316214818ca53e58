// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each experiment is a named runner producing a
// Table whose rows are the series the paper plots; cmd/maggbench prints
// them and EXPERIMENTS.md records the paper-vs-measured comparison.
//
// The "real dataset" is the seeded surrogate trace of package gen (see
// DESIGN.md §5); the synthetic datasets are uniform draws with the same
// group counts, exactly as Section 6.1 describes.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/attr"
	"repro/internal/cost"
	"repro/internal/feedgraph"
	"repro/internal/gen"
	"repro/internal/stream"
)

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Timings are wall-clock readings, printed after the notes as
	// "(…)" lines like maggbench's "(… completed in …)", so one filter
	// drops every reading that differs between two runs of one build.
	Timings []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, c := range t.Columns {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, c)
	}
	fmt.Fprintln(tw)
	for _, row := range t.Rows {
		for i, cell := range row {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, cell)
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	for _, n := range t.Timings {
		if _, err := fmt.Fprintf(w, "(%s: %s)\n", t.ID, n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Context carries shared experiment state. Quick mode shrinks datasets
// and sweeps so the full suite runs in seconds (used by tests and
// benchmarks); the default sizes match the paper's setup.
type Context struct {
	Seed  int64
	Quick bool

	paperU     *gen.Universe
	paperTrace *gen.FlowTrace
	synthU4    *gen.Universe
	synthRecs4 []stream.Record
}

// NewContext returns a Context with the default seed.
func NewContext(quick bool) *Context { return &Context{Seed: 42, Quick: quick} }

// paperData lazily builds the real-dataset surrogate.
func (c *Context) paperData() (*gen.Universe, *gen.FlowTrace, error) {
	if c.paperU == nil {
		if c.Quick {
			u, err := gen.PaperUniverse(c.Seed)
			if err != nil {
				return nil, nil, err
			}
			rng := newRng(c.Seed + 1)
			cfg := gen.PaperTraceConfig
			cfg.NumRecords = 120000
			ft, err := gen.Flows(rng, u, cfg)
			if err != nil {
				return nil, nil, err
			}
			c.paperU, c.paperTrace = u, ft
		} else {
			u, ft, err := gen.PaperTrace(c.Seed)
			if err != nil {
				return nil, nil, err
			}
			c.paperU, c.paperTrace = u, ft
		}
	}
	return c.paperU, c.paperTrace, nil
}

// synthData lazily builds the 4-dimensional uniform dataset "with the
// same number of groups as those encountered in real data" (Section 6.1):
// the correlated group universe of the paper trace, with records drawn
// uniformly (no flow clusteredness).
func (c *Context) synthData() (*gen.Universe, []stream.Record, error) {
	if c.synthU4 == nil {
		u, err := gen.PaperUniverse(c.Seed + 7)
		if err != nil {
			return nil, nil, err
		}
		n := 1000000
		if c.Quick {
			n = 100000
		}
		c.synthU4, c.synthRecs4 = u, gen.Uniform(newRng(c.Seed+8), u, n, 62)
	}
	return c.synthU4, c.synthRecs4, nil
}

// groupsFor measures g_R from a universe for every relation of interest.
func groupsFor(u *gen.Universe, rels []attr.Set) feedgraph.GroupCounts {
	out := feedgraph.GroupCounts{}
	for _, r := range rels {
		out[r] = float64(u.GroupCount(r))
	}
	return out
}

// allGraphGroups measures g_R for every node of a feeding graph.
func allGraphGroups(u *gen.Universe, g *feedgraph.Graph) feedgraph.GroupCounts {
	return groupsFor(u, g.Relations())
}

// Runner is an experiment entry point.
type Runner func(*Context) (*Table, error)

// Registry maps experiment ids (fig5..fig15, table1..table3) to runners.
var Registry = map[string]Runner{
	"fig5":   Fig5,
	"fig6":   Fig6,
	"fig7":   Fig7,
	"fig8":   Fig8,
	"table1": Table1,
	"fig9":   Fig9,
	"fig10":  Fig10,
	"table2": Table2,
	"table3": Table3,
	"fig11":  Fig11,
	"fig12":  Fig12,
	"fig13":  Fig13,
	"fig14":  Fig14,
	"fig15":  Fig15,
}

// IDs returns the registered experiment ids in run order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// fig5..fig15 numerically, then tables.
		oi, oj := orderKey(out[i]), orderKey(out[j])
		if oi != oj {
			return oi < oj
		}
		return out[i] < out[j]
	})
	return out
}

func orderKey(id string) int {
	var n int
	switch {
	case len(id) > 3 && id[:3] == "fig":
		fmt.Sscanf(id[3:], "%d", &n)
		return n * 10
	case len(id) > 5 && id[:5] == "table":
		fmt.Sscanf(id[5:], "%d", &n)
		// Interleave at the paper's positions: table1 after fig6,
		// tables 2-3 after fig10.
		switch n {
		case 1:
			return 65
		default:
			return 100 + n
		}
	}
	return 1000
}

// Run executes one experiment by id.
func Run(id string, ctx *Context) (*Table, error) {
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(ctx)
}

// fmtF formats a float compactly for table cells.
func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func fmtPct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// mSweep is the paper's memory sweep: 20,000..100,000 units.
func (c *Context) mSweep() []int {
	if c.Quick {
		return []int{20000, 60000, 100000}
	}
	return []int{20000, 40000, 60000, 80000, 100000}
}

// defaultParams is the paper's experimental cost setting.
func defaultParams() cost.Params { return cost.DefaultParams() }
