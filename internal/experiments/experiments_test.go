package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func quickCtx() *Context { return NewContext(true) }

// parseCell strips formatting and parses a numeric cell ("12.34%" or
// "0.1234" or "42").
func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func runExp(t *testing.T, id string, ctx *Context) *Table {
	t.Helper()
	tab, err := Run(id, ctx)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tab.ID != id || len(tab.Rows) == 0 || len(tab.Columns) == 0 {
		t.Fatalf("%s: malformed table %+v", id, tab)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("%s: row %v does not match columns %v", id, row, tab.Columns)
		}
	}
	var buf bytes.Buffer
	if err := tab.Fprint(&buf); err != nil {
		t.Fatalf("%s: print: %v", id, err)
	}
	if !strings.Contains(buf.String(), id) {
		t.Fatalf("%s: printed table lacks id", id)
	}
	return tab
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig5", "fig6", "table1", "fig7", "fig8", "fig9", "fig10",
		"table2", "table3", "fig11", "fig12", "fig13", "fig14", "fig15",
		"ablation1", "ablation2", "ext-adaptive", "ext-drops", "ext-scale", "ext-zipf"}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments (%v); want %d", len(ids), ids, len(want))
	}
	for _, w := range want {
		if _, ok := Registry[w]; !ok {
			t.Errorf("missing experiment %s", w)
		}
	}
	// Run order follows the paper: fig5, fig6, table1, fig7, ...
	if ids[0] != "fig5" || ids[2] != "table1" {
		t.Errorf("run order = %v", ids)
	}
	if _, err := Run("nope", quickCtx()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFig5Shape(t *testing.T) {
	tab := runExp(t, "fig5", quickCtx())
	// Rough < precise at small g/b; the grouped (16-slot) curve sits at
	// or below the one-slot precise curve; measurements track the grouped
	// model within 15% at moderate rates.
	first := tab.Rows[0]
	rough, precise := parseCell(t, first[1]), parseCell(t, first[2])
	if rough >= precise {
		t.Errorf("at g/b=%s rough %v not below precise %v", first[0], rough, precise)
	}
	for _, row := range tab.Rows {
		precise, grouped := parseCell(t, row[2]), parseCell(t, row[3])
		if grouped > precise*1.02 {
			t.Errorf("g/b=%s: grouped model %v above one-slot precise %v", row[0], grouped, precise)
		}
		if grouped < 0.3 {
			continue
		}
		// The equal-frequency synthetic column (last) obeys the model's
		// assumptions and must track it tightly; the trace columns carry
		// frequency skew, which grouped tables reward (hot groups hold
		// their slots), so the model only bounds them from above.
		synth := parseCell(t, row[len(row)-1])
		if synth < grouped*0.9 || synth > grouped*1.1 {
			t.Errorf("g/b=%s: synthetic %v deviates from grouped model %v", row[0], synth, grouped)
		}
		for i := 4; i < len(row)-1; i++ {
			m := parseCell(t, row[i])
			if m > grouped*1.05 || m < grouped*0.5 {
				t.Errorf("g/b=%s: trace measurement %v outside (%.3f, %.3f] of grouped model %v",
					row[0], m, grouped*0.5, grouped*1.05, grouped)
			}
		}
	}
}

func TestFig6Shape(t *testing.T) {
	tab := runExp(t, "fig6", quickCtx())
	// Bell: contributions rise then fall; everything past k=13 tiny.
	var vals []float64
	for _, row := range tab.Rows {
		vals = append(vals, parseCell(t, row[1]))
	}
	peak := 0
	for i, v := range vals {
		if v > vals[peak] {
			peak = i
		}
	}
	if k := peak + 2; k != 4 {
		t.Errorf("peak at k=%d; want 4", k)
	}
	if vals[len(vals)-1] > 0.001 {
		t.Errorf("tail contribution %v not negligible", vals[len(vals)-1])
	}
}

func TestTable1Shape(t *testing.T) {
	tab := runExp(t, "table1", quickCtx())
	for _, row := range tab.Rows {
		if v := parseCell(t, row[1]); v > 2.0 {
			t.Errorf("g/b=%s: variation %v%% exceeds 2%%", row[0], v)
		}
	}
	// Variation decreases as g/b grows.
	first, last := parseCell(t, tab.Rows[0][1]), parseCell(t, tab.Rows[len(tab.Rows)-1][1])
	if last > first {
		t.Errorf("variation grew from %v%% to %v%%", first, last)
	}
}

func TestFig7Fig8Shape(t *testing.T) {
	tab := runExp(t, "fig7", quickCtx())
	// Monotone increasing, asymptote below 1.
	prev := -1.0
	for _, row := range tab.Rows {
		v := parseCell(t, row[1])
		if v < prev-1e-9 {
			t.Errorf("curve decreased at g/b=%s", row[0])
		}
		if v > 1 {
			t.Errorf("rate above 1 at g/b=%s", row[0])
		}
		prev = v
	}

	tab8 := runExp(t, "fig8", quickCtx())
	// Eq16 tracks the precise model in the upper region.
	for _, row := range tab8.Rows {
		precise, eq16 := parseCell(t, row[1]), parseCell(t, row[2])
		if precise > 0.15 {
			if eq16 < precise*0.8 || eq16 > precise*1.2 {
				t.Errorf("g/b=%s: eq16 %v vs precise %v", row[0], eq16, precise)
			}
		}
	}
}

func TestFig9Fig10Tables23Shape(t *testing.T) {
	ctx := quickCtx()
	for _, id := range []string{"fig9", "fig10"} {
		tab := runExp(t, id, ctx)
		for _, row := range tab.Rows {
			sl := parseCell(t, row[2])
			if sl > 30 {
				t.Errorf("%s %s M=%s: SL error %v%% too large", id, row[0], row[1], sl)
			}
		}
	}
	t2 := runExp(t, "table2", ctx)
	for _, row := range t2.Rows {
		sl, sr, pl := parseCell(t, row[1]), parseCell(t, row[2]), parseCell(t, row[3])
		// SL should be competitive with SR everywhere (paper Table 2 has
		// them within tenths of a percent at M=20000) and clearly below
		// PL.
		if sl > sr*1.2+0.5 {
			t.Errorf("M=%s: SL avg error %v%% well above SR %v%%", row[0], sl, sr)
		}
		if sl > pl+1e-9 {
			t.Errorf("M=%s: SL avg error %v%% above PL %v%%", row[0], sl, pl)
		}
		if sl > 12 {
			t.Errorf("M=%s: SL avg error %v%% (paper: 2-6%%)", row[0], sl)
		}
	}
	t3 := runExp(t, "table3", ctx)
	for _, row := range t3.Rows {
		best := parseCell(t, row[1])
		if best < 40 {
			t.Errorf("M=%s: SL best only %v%% of configs", row[0], best)
		}
	}
}

func TestFig11Fig12Shape(t *testing.T) {
	ctx := quickCtx()
	tab := runExp(t, "fig11", ctx)
	for _, row := range tab.Rows {
		gcsl, gs := parseCell(t, row[1]), parseCell(t, row[3])
		if gcsl > gs*1.001 {
			t.Errorf("phi=%s: GCSL %v above GS %v", row[0], gcsl, gs)
		}
		if gcsl < 0.99 {
			t.Errorf("GCSL relative cost %v below the EPES optimum", gcsl)
		}
		if gcsl > 3 {
			t.Errorf("GCSL relative cost %v above 3x optimal (paper bound)", gcsl)
		}
	}
	t12 := runExp(t, "fig12", ctx)
	// The GCSL series' first step (adding the first phantom) has the
	// largest decrease.
	var gcslCosts []float64
	for _, row := range t12.Rows {
		if row[0] == "GCSL" {
			gcslCosts = append(gcslCosts, parseCell(t, row[3]))
		}
	}
	if len(gcslCosts) < 2 {
		t.Fatalf("GCSL trace too short: %v", gcslCosts)
	}
	firstDrop := gcslCosts[0] - gcslCosts[1]
	for i := 2; i < len(gcslCosts); i++ {
		if d := gcslCosts[i-1] - gcslCosts[i]; d > firstDrop+1e-9 {
			t.Errorf("step %d drop %v exceeds first drop %v", i, d, firstDrop)
		}
	}
}

func TestFig13Fig14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("measured experiments are slow in -short mode")
	}
	ctx := quickCtx()
	for _, id := range []string{"fig13", "fig14"} {
		tab := runExp(t, id, ctx)
		for _, row := range tab.Rows {
			gcsl, noPh := parseCell(t, row[1]), parseCell(t, row[3])
			if gcsl > 3.5 {
				t.Errorf("%s M=%s: GCSL relative actual cost %v above ~3x", id, row[0], gcsl)
			}
			if noPh < gcsl {
				t.Errorf("%s M=%s: no-phantom %v beats GCSL %v", id, row[0], noPh, gcsl)
			}
		}
		// The no-phantom penalty grows with M (phantom tables only pay
		// off once they fit); it must be substantial at the largest M.
		if noPh := parseCell(t, tab.Rows[len(tab.Rows)-1][3]); noPh < 2 {
			t.Errorf("%s: no-phantom only %vx at the largest M; expected a large gap", id, noPh)
		}
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("measured experiments are slow in -short mode")
	}
	ctx := quickCtx()
	for _, id := range []string{"ablation1", "ablation2"} {
		tab := runExp(t, id, ctx)
		for _, row := range tab.Rows {
			// The ablated variant should not be dramatically better than
			// the paper's choice.
			if penalty := parseCell(t, row[3]); penalty < 0.8 {
				t.Errorf("%s M=%s: ablated variant beat the paper's choice by %vx", id, row[0], penalty)
			}
		}
	}
}

func TestExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("measured experiments are slow in -short mode")
	}
	ctx := quickCtx()

	drops := runExp(t, "ext-drops", ctx)
	for _, row := range drops.Rows {
		gcsl, noPh := parseCell(t, row[1]), parseCell(t, row[2])
		if gcsl > noPh+1e-9 {
			t.Errorf("capacity %s: GCSL drop %v%% exceeds no-phantom %v%%", row[0], gcsl, noPh)
		}
	}
	// At the tightest capacity the gap should be visible.
	if g, n := parseCell(t, drops.Rows[0][1]), parseCell(t, drops.Rows[0][2]); n-g < 1 {
		t.Errorf("tightest capacity: drop gap only %v%% - %v%%", n, g)
	}

	scale := runExp(t, "ext-scale", ctx)
	for _, row := range scale.Rows {
		if ratio := parseCell(t, row[3]); ratio > 1.0001 {
			t.Errorf("%s queries: GCSL cost ratio %v above no-phantom", row[0], ratio)
		}
	}

	adaptive := runExp(t, "ext-adaptive", ctx)
	staticCost := parseCell(t, adaptive.Rows[0][1])
	adaptCost := parseCell(t, adaptive.Rows[1][1])
	if adaptCost > staticCost*1.05 {
		t.Errorf("adaptive engine cost %v worse than static %v under drift", adaptCost, staticCost)
	}

	zipf := runExp(t, "ext-zipf", ctx)
	first := parseCell(t, zipf.Rows[0][1])
	last := parseCell(t, zipf.Rows[len(zipf.Rows)-1][1])
	if last > first {
		t.Errorf("skew increased measured cost (%v -> %v); expected hot groups to be cheaper", first, last)
	}
}

func TestFig15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("measured experiment is slow in -short mode")
	}
	ctx := quickCtx()
	tab := runExp(t, "fig15", ctx)
	for _, row := range tab.Rows {
		if row[1] == "infeasible" || row[2] == "infeasible" {
			continue
		}
		shrink, shift := parseCell(t, row[1]), parseCell(t, row[2])
		// Constrained allocations cannot beat the unconstrained one by
		// much, and should stay within a small factor of it.
		for _, v := range []float64{shrink, shift} {
			if v < 0.9 || v > 6 {
				t.Errorf("E_p=%s%%: relative cost %v out of range", row[0], v)
			}
		}
	}
}
