package query

import (
	"encoding/binary"
	"testing"

	"repro/internal/attr"
	"repro/internal/hashtab"
	"repro/internal/selvec"
)

// fuzzFilterDecode turns an arbitrary byte string into a DNF filter
// plus a column batch, so the fuzzer explores filter shapes (depth,
// degenerate conjunctions, out-of-range attributes, boundary constants)
// and batch geometries at once. Exhausted input reads as zero.
func fuzzFilterDecode(data []byte) (Filter, [][]uint32, int) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	next64 := func() int64 {
		var buf [8]byte
		for i := range buf {
			buf[i] = next()
		}
		return int64(binary.LittleEndian.Uint64(buf[:]))
	}

	var f Filter
	nConj := int(next() % 5)
	for i := 0; i < nConj; i++ {
		nPred := int(next() % 6)
		conj := make([]Predicate, nPred)
		for j := range conj {
			conj[j] = Predicate{
				Attr: attr.ID(next() % 8),
				Op:   fuzzOps[int(next())%len(fuzzOps)],
				Val:  next64(),
			}
		}
		f.DNF = append(f.DNF, conj)
	}

	width := 1 + int(next()%6)
	n := 1 + int(next()) // 1..256: covers sub-word, word, multi-word
	cols := make([][]uint32, width)
	// Column values come from the input with a splitmix-style whitening
	// of the lane index mixed in, so a short input still yields varied
	// columns while staying deterministic.
	seed := uint64(next()) | uint64(next())<<8
	for a := range cols {
		cols[a] = make([]uint32, n)
		for i := range cols[a] {
			x := seed + uint64(a*n+i)*0x9e3779b97f4a7c15
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			v := uint32(x)
			if b := next(); b != 0 {
				v = uint32(b) // small values make predicates actually hit
			}
			cols[a][i] = v
		}
	}
	return f, cols, n
}

// FuzzFilterCompile checks parse→compile→vectorized-evaluate against
// the interpreted Filter.Match on every lane, under every kernel.
func FuzzFilterCompile(f *testing.F) {
	// Degenerate: empty input (empty filter), single empty conjunction.
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 100})
	// One conjunction, boundary constants: attr0 < 2^32-1, attr1 != -1.
	f.Add([]byte{
		1, 2,
		0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0,
		1, 5, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		2, 200, 7, 9,
	})
	// Deep DNF: four conjunctions of five predicates with mixed ops,
	// out-of-range attrs, and constants straddling the uint32 domain.
	deep := []byte{4}
	for c := 0; c < 4; c++ {
		deep = append(deep, 5)
		for p := 0; p < 5; p++ {
			deep = append(deep, byte(c*2+p)) // attr, some >= width
			deep = append(deep, byte(c+p))   // op selector
			var val [8]byte
			binary.LittleEndian.PutUint64(val[:], uint64(1)<<32+uint64(c*p)-uint64(p))
			deep = append(deep, val[:]...)
		}
	}
	deep = append(deep, 3, 65, 42, 1) // width 4, n=66 (word boundary), seed
	f.Add(deep)

	f.Fuzz(func(t *testing.T, data []byte) {
		filt, cols, n := fuzzFilterDecode(data)
		prev := hashtab.SIMDEnabled()
		defer hashtab.SetSIMD(prev)

		row := make([]uint32, len(cols))
		want := make([]bool, n)
		for i := 0; i < n; i++ {
			for a := range cols {
				row[a] = cols[a][i]
			}
			want[i] = filt.Match(row)
		}

		for _, simd := range []bool{false, true} {
			if simd && !hashtab.SIMDAvailable() {
				continue
			}
			hashtab.SetSIMD(simd)
			cf := filt.Compile()
			sel := selvec.Grow(nil, n)
			cf.EvalColumns(cols, n, sel)
			for i := 0; i < n; i++ {
				for a := range cols {
					row[a] = cols[a][i]
				}
				if matchRow(cf, row) != want[i] {
					t.Fatalf("simd=%v filter %v row %v: one-lane compiled diverged", simd, filt, row)
				}
				if sel.Test(i) != want[i] {
					t.Fatalf("simd=%v filter %v lane %d row %v: columnar diverged (got %v want %v)",
						simd, filt, i, row, sel.Test(i), want[i])
				}
			}
			if n > 0 {
				if tail := sel[len(sel)-1] &^ selvec.TailMask(n); tail != 0 {
					t.Fatalf("simd=%v dead tail bits %#x", simd, tail)
				}
			}
		}
	})
}
