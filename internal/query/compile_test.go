package query

import (
	"math/rand"
	"testing"

	"repro/internal/attr"
	"repro/internal/hashtab"
	"repro/internal/selvec"
)

// forEachKernel runs fn under every selection-vector kernel the host
// offers (generic always; AVX2/NEON when available), restoring the
// process-wide switch afterwards.
func forEachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	prev := hashtab.SIMDEnabled()
	defer hashtab.SetSIMD(prev)

	hashtab.SetSIMD(false)
	t.Run("generic", fn)
	if hashtab.SIMDAvailable() {
		hashtab.SetSIMD(true)
		t.Run(hashtab.KernelName(), fn)
	}
}

// fuzzVals are WHERE constants at and around the uint32 domain edges,
// where the compile-time folds change shape.
var fuzzVals = []int64{
	-(1 << 40), -2, -1, 0, 1, 2, 5, 80, 1023, 1024,
	1<<32 - 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1 << 40,
}

var fuzzOps = []CmpOp{Lt, Le, Gt, Ge, Eq, Ne, CmpOp("??")}

func randomFilter(rng *rand.Rand, maxAttr int) Filter {
	var f Filter
	nConj := rng.Intn(4) // 0 = empty filter
	for i := 0; i < nConj; i++ {
		nPred := rng.Intn(5) // 0 = vacuously true conjunction
		conj := make([]Predicate, nPred)
		for j := range conj {
			conj[j] = Predicate{
				Attr: attr.ID(rng.Intn(maxAttr + 2)), // may exceed row width
				Op:   fuzzOps[rng.Intn(len(fuzzOps))],
				Val:  fuzzVals[rng.Intn(len(fuzzVals))],
			}
		}
		f.DNF = append(f.DNF, conj)
	}
	return f
}

func randomColumns(rng *rand.Rand, width, n int) [][]uint32 {
	cols := make([][]uint32, width)
	for a := range cols {
		cols[a] = make([]uint32, n)
		for i := range cols[a] {
			switch rng.Intn(4) {
			case 0:
				cols[a][i] = rng.Uint32()
			case 1:
				cols[a][i] = uint32(fuzzVals[5+rng.Intn(7)]) // small in-domain
			default:
				cols[a][i] = uint32(rng.Intn(8))
			}
		}
	}
	return cols
}

// matchRow evaluates the compiled filter on one record through
// EvalColumns, as a one-lane batch of len(row) columns.
func matchRow(cf *CompiledFilter, row []uint32) bool {
	cols := make([][]uint32, len(row))
	for a := range row {
		cols[a] = row[a : a+1]
	}
	sel := selvec.Grow(nil, 1)
	cf.EvalColumns(cols, 1, sel)
	return sel.Test(0)
}

// TestFilterCompileScalarEquivalence pins the compiled filter, evaluated
// one row at a time, against the interpreted Filter.Match over random
// DNFs and rows, including rows narrower than the referenced attributes.
func TestFilterCompileScalarEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for iter := 0; iter < 5000; iter++ {
		width := rng.Intn(5) // 0..4, may be narrower than filter attrs
		f := randomFilter(rng, 4)
		cf := f.Compile()
		row := make([]uint32, width)
		for r := 0; r < 8; r++ {
			for i := range row {
				if rng.Intn(2) == 0 {
					row[i] = uint32(rng.Intn(8))
				} else {
					row[i] = rng.Uint32()
				}
			}
			if got, want := matchRow(cf, row), f.Match(row); got != want {
				t.Fatalf("filter %v row %v: compiled %v, interpreted %v", f, row, got, want)
			}
		}
	}
}

// TestFilterCompileColumnarEquivalence pins EvalColumns lane-for-lane
// against interpreted per-row Match over random DNFs, batch lengths
// around word boundaries, and every kernel.
func TestFilterCompileColumnarEquivalence(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		lengths := []int{1, 3, 63, 64, 65, 127, 128, 200, 1024}
		var sel selvec.Bitmap
		row := make([]uint32, 8)
		for iter := 0; iter < 400; iter++ {
			width := 1 + rng.Intn(4)
			n := lengths[rng.Intn(len(lengths))]
			f := randomFilter(rng, width)
			cf := f.Compile()
			cols := randomColumns(rng, width, n)
			sel = selvec.Grow(sel, n)
			cf.EvalColumns(cols, n, sel)
			for i := 0; i < n; i++ {
				for a := 0; a < width; a++ {
					row[a] = cols[a][i]
				}
				want := f.Match(row[:width])
				if got := sel.Test(i); got != want {
					t.Fatalf("filter %v lane %d (n=%d width=%d row %v): compiled %v, interpreted %v",
						f, i, n, width, row[:width], got, want)
				}
			}
			if tail := sel[len(sel)-1] &^ selvec.TailMask(n); tail != 0 {
				t.Fatalf("dead tail bits set: %#x (n=%d)", tail, n)
			}
		}
	})
}

// TestFilterCompileFolds pins the compile-time constant folds and the
// out-of-range-attribute rule they must preserve.
func TestFilterCompileFolds(t *testing.T) {
	// v != -1 is vacuously true over uint32 — but the interpreted Match
	// still fails a row too narrow to hold the attribute.
	f := Filter{DNF: [][]Predicate{{{Attr: 3, Op: Ne, Val: -1}}}}
	cf := f.Compile()
	if cf.AlwaysTrue() {
		t.Fatal("width-gated vacuous-true conjunction must not report AlwaysTrue")
	}
	if matchRow(cf, []uint32{1, 2}) {
		t.Fatal("narrow row must fail the width gate")
	}
	if !matchRow(cf, []uint32{1, 2, 3, 4}) {
		t.Fatal("wide row must pass the folded-true predicate")
	}

	// a >= 0 over attr 0 is vacuously true with no width hazard beyond
	// attr 0 ... still requires the row to have attr 0.
	f = Filter{DNF: [][]Predicate{{{Attr: 0, Op: Ge, Val: 0}}}}
	cf = f.Compile()
	if matchRow(cf, nil) {
		t.Fatal("empty row must fail attr-0 width gate")
	}
	if !matchRow(cf, []uint32{0}) {
		t.Fatal("attr 0 present: vacuous-true must pass")
	}

	// Empty conjunction matches everything, even the empty row.
	f = Filter{DNF: [][]Predicate{{}}}
	cf = f.Compile()
	if !cf.AlwaysTrue() || !matchRow(cf, nil) {
		t.Fatal("empty conjunction must fold to always-true")
	}

	// Every conjunction constant-false: matches nothing.
	f = Filter{DNF: [][]Predicate{
		{{Attr: 0, Op: Lt, Val: 0}},
		{{Attr: 1, Op: Eq, Val: -7}},
		{{Attr: 2, Op: Gt, Val: 1<<32 - 1}},
	}}
	cf = f.Compile()
	if cf.empty || cf.always || len(cf.conjs) != 0 {
		t.Fatal("all-false DNF must fold to no conjunction")
	}
	sel := selvec.Grow(nil, 64)
	cols := [][]uint32{make([]uint32, 64), make([]uint32, 64), make([]uint32, 64)}
	cf.EvalColumns(cols, 64, sel)
	if sel.Count(64) != 0 {
		t.Fatal("matches-nothing filter selected lanes")
	}

	// Empty filter matches everything columnar too.
	cf = Filter{}.Compile()
	if !cf.AlwaysTrue() {
		t.Fatal("empty filter must be always-true")
	}
	cf.EvalColumns(cols, 64, sel)
	if sel.Count(64) != 64 {
		t.Fatal("empty filter must select every lane")
	}
}

// TestFilterAdaptiveOrder feeds a skewed stream where the second
// predicate is far more selective than the first, and checks that after
// re-ranking the selective predicate runs first — without changing any
// selection bit.
func TestFilterAdaptiveOrder(t *testing.T) {
	f := Filter{DNF: [][]Predicate{{
		{Attr: 0, Op: Lt, Val: 1 << 30}, // passes nearly always
		{Attr: 1, Op: Eq, Val: 999999},  // passes nearly never
	}}}
	cf := f.Compile()
	order := cf.predOrder()
	if order[0][0].attr != 0 {
		t.Fatal("compile must preserve source order initially")
	}

	rng := rand.New(rand.NewSource(22))
	n := 256
	cols := [][]uint32{make([]uint32, n), make([]uint32, n)}
	sel := selvec.Grow(nil, n)
	interp := make([]bool, n)
	row := make([]uint32, 2)
	for batch := 0; batch < 2*rerankEvery; batch++ {
		for i := 0; i < n; i++ {
			cols[0][i] = uint32(rng.Intn(1 << 20))
			cols[1][i] = uint32(rng.Intn(1 << 24))
		}
		cf.EvalColumns(cols, n, sel)
		for i := 0; i < n; i++ {
			row[0], row[1] = cols[0][i], cols[1][i]
			interp[i] = f.Match(row)
			if sel.Test(i) != interp[i] {
				t.Fatalf("batch %d lane %d: reordered eval diverged", batch, i)
			}
		}
	}
	order = cf.predOrder()
	if got := order[0][0]; got.attr != 1 {
		t.Fatalf("after re-rank, selective predicate must run first; order starts with attr %d", got.attr)
	}
}
