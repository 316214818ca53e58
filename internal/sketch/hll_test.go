package sketch

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(3); err == nil {
		t.Error("precision 3 accepted")
	}
	if _, err := New(17); err == nil {
		t.Error("precision 17 accepted")
	}
	h, err := New(DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	if sizeBytes(h) != 0 || h.p != DefaultPrecision {
		t.Errorf("empty counter: size %d, precision %d", sizeBytes(h), h.p)
	}
}

// sizeBytes is the memory footprint of a counter's register store: 2^p
// once dense, four bytes per non-zero register before.
func sizeBytes(h *HLL) int { return len(h.regs) + 4*len(h.sparse) }

func TestEstimateAccuracy(t *testing.T) {
	for _, n := range []int{100, 1000, 10000, 100000, 1000000} {
		h := MustNew(DefaultPrecision)
		for i := 0; i < n; i++ {
			h.AddKey([]uint32{uint32(i), uint32(i >> 3), uint32(i % 2)})
		}
		// Exact duplicates must not inflate the estimate.
		for i := 0; i < n/2; i++ {
			h.AddKey([]uint32{uint32(i), uint32(i >> 3), uint32(i % 2)})
		}
		est := h.Estimate()
		relErr := math.Abs(est-float64(n)) / float64(n)
		// 1.04/√4096 ≈ 1.6% standard error; allow ~5 sigma.
		if relErr > 0.08 {
			t.Errorf("n=%d: estimate %.0f (rel err %.3f)", n, est, relErr)
		}
	}
}

func TestSmallRangeLinearCounting(t *testing.T) {
	h := MustNew(DefaultPrecision)
	for i := 0; i < 10; i++ {
		h.AddKey([]uint32{uint32(i)})
	}
	est := h.Estimate()
	if est < 8 || est > 12 {
		t.Errorf("estimate for 10 distinct = %v", est)
	}
	// Idempotence: re-adding the same elements changes nothing.
	before := h.Estimate()
	for i := 0; i < 10; i++ {
		h.AddKey([]uint32{uint32(i)})
	}
	if h.Estimate() != before {
		t.Error("re-adding elements changed the estimate")
	}
}

func TestMerge(t *testing.T) {
	a, b := MustNew(10), MustNew(10)
	for i := 0; i < 5000; i++ {
		a.AddKey([]uint32{uint32(i)})
		b.AddKey([]uint32{uint32(i + 2500)}) // 50% overlap
	}
	union := a.Clone()
	if err := union.Merge(b); err != nil {
		t.Fatal(err)
	}
	est := union.Estimate()
	if math.Abs(est-7500)/7500 > 0.15 {
		t.Errorf("union estimate %v; want ≈ 7500", est)
	}
	// Merge precision mismatch.
	if err := a.Merge(MustNew(11)); err == nil {
		t.Error("precision mismatch accepted")
	}
	if err := a.Merge(nil); err == nil {
		t.Error("nil merge accepted")
	}
}

func TestReset(t *testing.T) {
	h := MustNew(8)
	h.AddKey([]uint32{1})
	h.Reset()
	if est := h.Estimate(); est != 0 {
		t.Errorf("estimate after reset = %v", est)
	}
}

// Property: merge is commutative and idempotent, and the union estimate
// is at least each side's estimate.
func TestMergeProperties(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		a, b := MustNew(8), MustNew(8)
		for _, x := range xs {
			a.AddKey([]uint32{x})
		}
		for _, y := range ys {
			b.AddKey([]uint32{y})
		}
		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if math.Abs(ab.Estimate()-ba.Estimate()) > 1e-9 {
			return false
		}
		again := ab.Clone()
		again.Merge(b)
		if math.Abs(again.Estimate()-ab.Estimate()) > 1e-9 {
			return false
		}
		return ab.Estimate() >= a.Estimate()-1e-9 && ab.Estimate() >= b.Estimate()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the estimate is monotone under adding elements.
func TestMonotoneProperty(t *testing.T) {
	f := func(xs []uint32) bool {
		h := MustNew(8)
		prev := 0.0
		for _, x := range xs {
			h.AddKey([]uint32{x})
			est := h.Estimate()
			if est < prev-1e-9 {
				return false
			}
			prev = est
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Estimate sums over register counts (dense) or adds the few terms to the
// count of empty registers (sparse); the answer must be the register-order
// sum's to the bit, whatever the registers hold: empty, a few touched,
// full, ranks too large for the counted sum to be exact, and the bytes
// past 63 that only a foreign blob carries. The registers go in through
// the wire, so the sparsely filled cases land in the sparse store.
func TestEstimateMatchesRegisterOrderSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(what string, ref *denseRef) {
		t.Helper()
		for form, blob := range [][]byte{ref.blob(), ref.canonical()} {
			h := new(HLL)
			if _, err := h.decode(blob); err != nil {
				t.Fatalf("%s: form %d: %v", what, form, err)
			}
			if got, want := h.Estimate(), ref.estimate(); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: form %d: Estimate %v, register-order sum gives %v", what, form, got, want)
			}
		}
	}
	for _, p := range []uint8{MinPrecision, 10, DefaultPrecision, MaxPrecision} {
		m := 1 << p
		for _, touched := range []int{0, 1, 20, m / 8, m/8 + 1, m / 2, m} {
			for _, maxRank := range []int{3, 30, 53 - int(p), 54 - int(p), 64 - int(p) + 1, 255} {
				ref := newDenseRef(p)
				for _, i := range rng.Perm(m)[:min(touched, m)] {
					ref.regs[i] = uint8(1 + rng.Intn(maxRank))
				}
				if touched > 0 {
					ref.regs[rng.Intn(m)] = uint8(maxRank)
				}
				check(fmt.Sprintf("p=%d touched=%d maxRank=%d", p, touched, maxRank), ref)
			}
		}
	}
	// Where the two orders part: 280 empty registers bring the sum to 280,
	// where a float64 steps by 2^-44, and each 2^-46 that follows is lost
	// one at a time but not as 744 of them at once. The same in the sparse
	// store: 100 registers of rank 46 at precision 10.
	ref := newDenseRef(10)
	for i := 280; i < len(ref.regs); i++ {
		ref.regs[i] = 46
	}
	check("rounding case, dense", ref)
	ref = newDenseRef(10)
	for i := 900; i < 1000; i++ {
		ref.regs[i] = 46
	}
	check("rounding case, sparse", ref)
}

// Merge takes a different road for each pairing of stores (list into
// list, list into array, array into list, array into array, skipping the
// words its argument never touched); the result must be the register-wise
// maximum all the same.
func TestMergeIsRegisterMax(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const p = 10
	fill := func(touched int) *denseRef {
		ref := newDenseRef(p)
		for _, i := range rng.Perm(1 << p)[:touched] {
			ref.regs[i] = uint8(1 + rng.Intn(50))
		}
		return ref
	}
	// A counter holding ref's registers in the sparse store, or in the
	// dense one however few they are (Reset keeps the store).
	build := func(ref *denseRef, dense bool) *HLL {
		h := MustNew(p)
		if dense {
			for i := 0; i < 1<<p; i++ {
				h.Add(hashFor(p, i, 1))
			}
			h.Reset()
		}
		for i, r := range ref.regs {
			if r != 0 {
				h.Add(hashFor(p, i, r))
			}
		}
		if got := sizeBytes(h) == 1<<p; got != dense {
			t.Fatalf("built dense=%v, want %v", got, dense)
		}
		return h
	}
	for _, na := range []int{0, 5, 100, 128} {
		for _, nb := range []int{0, 5, 100, 128} {
			ra, rb := fill(na), fill(nb)
			want := newDenseRef(p)
			want.merge(ra)
			want.merge(rb)
			for _, aDense := range []bool{false, true} {
				for _, bDense := range []bool{false, true} {
					a, b := build(ra, aDense), build(rb, bDense)
					if err := a.Merge(b); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(a.AppendBinary(nil), want.canonical()) {
						t.Errorf("|a|=%d dense=%v, |b|=%d dense=%v: merge is not the register-wise max", na, aDense, nb, bDense)
					}
					if !bytes.Equal(b.AppendBinary(nil), rb.canonical()) {
						t.Errorf("|a|=%d dense=%v, |b|=%d dense=%v: merge wrote its argument", na, aDense, nb, bDense)
					}
				}
			}
		}
	}
	// Dense into dense at full fill, and a counter into itself.
	ra, rb := fill(1024), fill(300)
	a, b := build(ra, true), build(rb, true)
	_ = a.Merge(b)
	ra.merge(rb)
	if !bytes.Equal(a.AppendBinary(nil), ra.canonical()) {
		t.Error("full dense merge is not the register-wise max")
	}
	self := build(fill(60), false)
	before := self.AppendBinary(nil)
	_ = self.Merge(self)
	if !bytes.Equal(self.AppendBinary(nil), before) {
		t.Error("self-merge changed a sparse counter")
	}
}

func BenchmarkHLLEstimateSparse(b *testing.B) {
	h := MustNew(10)
	for i := uint32(0); i < 20; i++ {
		h.AddKey([]uint32{i})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkF = h.Estimate()
	}
}

var sinkF float64

func BenchmarkHLLAdd(b *testing.B) {
	h := MustNew(DefaultPrecision)
	key := []uint32{1, 2, 3, 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key[0] = uint32(i)
		h.AddKey(key)
	}
}
