package sketch

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The merge-law property suite: the window composer folds pane partials
// in whatever order panes close, so HLL merge must be an exact
// commutative/associative/idempotent monoid on serialized state, and
// t-digest merge must satisfy the same laws to within quantile
// tolerance (its centroid set is order-sensitive only below the error
// the digest already carries).

func hllBytes(h *HLL) []byte { return h.AppendBinary(nil) }

func randHLL(rng *rand.Rand, n int) *HLL {
	h := MustNew(DefaultPrecision)
	for i := 0; i < n; i++ {
		h.AddKey([]uint32{rng.Uint32() % 50000, rng.Uint32() % 7})
	}
	return h
}

func TestHLLMergeLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		a := randHLL(rng, 1+rng.Intn(5000))
		b := randHLL(rng, 1+rng.Intn(5000))
		c := randHLL(rng, 1+rng.Intn(5000))

		// Commutativity: a∪b == b∪a, byte-for-byte.
		ab := a.Clone()
		if err := ab.Merge(b); err != nil {
			t.Fatal(err)
		}
		ba := b.Clone()
		if err := ba.Merge(a); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hllBytes(ab), hllBytes(ba)) {
			t.Fatalf("trial %d: HLL merge not commutative", trial)
		}

		// Associativity: (a∪b)∪c == a∪(b∪c).
		abc1 := ab.Clone()
		if err := abc1.Merge(c); err != nil {
			t.Fatal(err)
		}
		bc := b.Clone()
		if err := bc.Merge(c); err != nil {
			t.Fatal(err)
		}
		abc2 := a.Clone()
		if err := abc2.Merge(bc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hllBytes(abc1), hllBytes(abc2)) {
			t.Fatalf("trial %d: HLL merge not associative", trial)
		}

		// Idempotence under self-merge: a∪a == a.
		aa := a.Clone()
		if err := aa.Merge(a); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hllBytes(aa), hllBytes(a)) {
			t.Fatalf("trial %d: HLL self-merge not idempotent", trial)
		}

		// Identity: a∪empty == a.
		ae := a.Clone()
		if err := ae.Merge(MustNew(DefaultPrecision)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hllBytes(ae), hllBytes(a)) {
			t.Fatalf("trial %d: empty HLL is not a merge identity", trial)
		}
	}
}

// TestHLLErrorBounds pins the relative error vs exact distinct counts
// across five decades (the ISSUE grid n ∈ {10^2 .. 10^6}).
func TestHLLErrorBounds(t *testing.T) {
	for _, n := range []int{100, 1000, 10000, 100000, 1000000} {
		h := MustNew(DefaultPrecision)
		for i := 0; i < n; i++ {
			h.AddKey([]uint32{uint32(i), uint32(i / 3)})
		}
		est := h.Estimate()
		relErr := math.Abs(est-float64(n)) / float64(n)
		// Standard error at p=12 is 1.04/√4096 ≈ 1.6%; allow 5σ.
		if relErr > 0.08 {
			t.Errorf("n=%d: estimate %.0f, rel err %.3f > 0.08", n, est, relErr)
		}
	}
}

func TestHLLBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := randHLL(rng, 3000)
	blob := h.AppendBinary(nil)
	got := new(HLL)
	rest, err := got.decode(append(blob, 0xEE)) // trailing byte must survive
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 1 || rest[0] != 0xEE {
		t.Fatalf("tail not preserved: %v", rest)
	}
	if !bytes.Equal(got.AppendBinary(nil), blob) {
		t.Fatal("decode(encode) not state-identical")
	}
	if got.Estimate() != h.Estimate() {
		t.Fatal("round-tripped estimate differs")
	}
	// Truncations and a bad precision byte must be rejected, not panic.
	for cut := 0; cut < len(blob); cut += 97 {
		if _, err := new(HLL).decode(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 99
	if _, err := new(HLL).decode(bad); err == nil {
		t.Fatal("precision 99 accepted")
	}
}

func digestBytes(d *TDigest) []byte { return d.Clone().AppendBinary(nil) }

func randDigest(rng *rand.Rand, n int, dist int) *TDigest {
	d, _ := NewTDigest(DefaultCompression) // the default δ is valid
	for i := 0; i < n; i++ {
		switch dist {
		case 0:
			d.Add(rng.Float64() * 1000)
		case 1:
			d.Add(rng.NormFloat64()*50 + 500)
		default:
			d.Add(math.Exp(rng.NormFloat64())) // log-normal: heavy tail
		}
	}
	return d
}

// quantileDelta compares two digests at a grid of quantiles, returning
// the max absolute difference normalized by the value range.
func quantileDelta(a, b *TDigest) float64 {
	lo := math.Min(a.min, b.min)
	hi := math.Max(a.max, b.max)
	span := hi - lo
	if span == 0 {
		span = 1
	}
	worst := 0.0
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		d := math.Abs(a.Quantile(q)-b.Quantile(q)) / span
		if d > worst {
			worst = d
		}
	}
	return worst
}

func TestTDigestMergeLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		dist := trial % 3
		a := randDigest(rng, 1+rng.Intn(4000), dist)
		b := randDigest(rng, 1+rng.Intn(4000), dist)
		c := randDigest(rng, 1+rng.Intn(4000), dist)

		// Commutativity is exact: merge sorts the combined centroid set
		// before rebuilding, so order cannot leak into the result.
		ab := a.Clone()
		if err := ab.Merge(b); err != nil {
			t.Fatal(err)
		}
		ba := b.Clone()
		if err := ba.Merge(a); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(digestBytes(ab), digestBytes(ba)) {
			t.Fatalf("trial %d: t-digest merge not bitwise commutative", trial)
		}

		// Associativity holds to within digest resolution (~1/δ rank
		// error, so a small normalized value tolerance on smooth data).
		abc1 := ab.Clone()
		if err := abc1.Merge(c); err != nil {
			t.Fatal(err)
		}
		bc := b.Clone()
		if err := bc.Merge(c); err != nil {
			t.Fatal(err)
		}
		abc2 := a.Clone()
		if err := abc2.Merge(bc); err != nil {
			t.Fatal(err)
		}
		if d := quantileDelta(abc1, abc2); d > 0.05 {
			t.Fatalf("trial %d: associativity delta %.4f", trial, d)
		}

		// Idempotence under self-merge: doubling every weight moves no
		// quantile beyond digest resolution.
		aa := a.Clone()
		if err := aa.Merge(a); err != nil {
			t.Fatal(err)
		}
		if d := quantileDelta(aa, a); d > 0.05 {
			t.Fatalf("trial %d: self-merge delta %.4f", trial, d)
		}
		if got, want := aa.Count(), 2*a.Count(); got != want {
			t.Fatalf("trial %d: self-merge count %v, want %v", trial, got, want)
		}

		// Identity: merging an empty digest is a byte-level no-op after
		// flush.
		ae := a.Clone()
		empty, err := NewTDigest(DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		if err := ae.Merge(empty); err != nil {
			t.Fatal(err)
		}
		af := a.Clone()
		af.flush()
		if !bytes.Equal(digestBytes(ae), digestBytes(af)) {
			t.Fatalf("trial %d: empty digest is not a merge identity", trial)
		}
	}
}

// TestTDigestRankError pins the quantile accuracy: for each estimated
// quantile, the rank of the estimate within the exact sorted data must
// be within 0.05 of the requested rank.
func TestTDigestRankError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for dist := 0; dist < 3; dist++ {
		for _, n := range []int{100, 1000, 10000, 100000} {
			d, err := NewTDigest(DefaultCompression)
			if err != nil {
				t.Fatal(err)
			}
			vals := make([]float64, n)
			for i := range vals {
				switch dist {
				case 0:
					vals[i] = rng.Float64() * 1000
				case 1:
					vals[i] = rng.NormFloat64()*50 + 500
				default:
					vals[i] = math.Exp(rng.NormFloat64())
				}
				d.Add(vals[i])
			}
			sort.Float64s(vals)
			for _, q := range []float64{0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99} {
				est := d.Quantile(q)
				// Rank of est in the exact data.
				rank := float64(sort.SearchFloat64s(vals, est)) / float64(n)
				if err := math.Abs(rank - q); err > 0.05 {
					t.Errorf("dist=%d n=%d q=%.2f: est %.3f has rank %.3f (err %.3f)", dist, n, q, est, rank, err)
				}
			}
			if d.Quantile(0) != vals[0] || d.Quantile(1) != vals[n-1] {
				t.Errorf("dist=%d n=%d: extreme quantiles not exact min/max", dist, n)
			}
		}
	}
}

func TestTDigestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d, err := NewTDigest(DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	// Leave the insert buffer partially full: serialization must carry
	// it verbatim for checkpoint byte-identity.
	for i := 0; i < 1234; i++ {
		d.Add(rng.Float64() * 100)
	}
	blob := d.AppendBinary(nil)
	got, rest, err := DecodeTDigest(append(blob, 0xAB))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 1 || rest[0] != 0xAB {
		t.Fatalf("tail not preserved: %v", rest)
	}
	if !bytes.Equal(got.AppendBinary(nil), blob) {
		t.Fatal("decode(encode) not byte-identical")
	}
	if got.Quantile(0.5) != d.Quantile(0.5) {
		t.Fatal("round-tripped median differs")
	}
	for cut := 0; cut < len(blob); cut += 13 {
		if _, _, err := DecodeTDigest(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestTDigestEmptyAndEdge(t *testing.T) {
	d, err := NewTDigest(0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Compression() != DefaultCompression {
		t.Fatalf("compression 0 should select default, got %v", d.Compression())
	}
	if !math.IsNaN(d.Quantile(0.5)) {
		t.Fatal("empty digest must return NaN")
	}
	if _, err := NewTDigest(3); err == nil {
		t.Fatal("compression 3 accepted")
	}
	d.Add(math.NaN()) // ignored
	if d.Count() != 0 {
		t.Fatal("NaN was counted")
	}
	d.Add(7)
	for q := 0.0; q <= 1.0; q += 0.25 {
		if d.Quantile(q) != 7 {
			t.Fatalf("single-value digest: q=%v gave %v", q, d.Quantile(q))
		}
	}
	// Mismatched compression merges must be rejected.
	other, err := NewTDigest(200)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Merge(other); err == nil {
		t.Fatal("compression mismatch accepted")
	}
	d.Reset()
	if d.Count() != 0 || !math.IsNaN(d.Quantile(0.5)) {
		t.Fatal("Reset did not empty the digest")
	}
}

func TestPartialObserveMergeRoundTrip(t *testing.T) {
	aggs := []Agg{
		{Kind: Distinct, Input: 1},
		{Kind: Quantile, Input: 2, Q: 0.5},
		{Kind: Quantile, Input: 2, Q: 0.95},
	}
	mk := func() *Partial {
		p, err := NewPartial(aggs, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	rng := rand.New(rand.NewSource(3))
	a, b, whole := mk(), mk(), mk()
	for i := 0; i < 20000; i++ {
		rec := []uint32{rng.Uint32(), uint32(rng.Intn(5000)), uint32(rng.Intn(100000))}
		if i%2 == 0 {
			a.Observe(rec)
		} else {
			b.Observe(rec)
		}
		whole.Observe(rec)
	}
	// Round trip both halves through the wire format, then merge: the
	// same path pane partials take LFTA→HFTA.
	blob := a.AppendBinary(nil)
	blob = b.AppendBinary(blob)
	da, rest, err := DecodePartial(aggs, 0, 0, blob)
	if err != nil {
		t.Fatal(err)
	}
	db, rest, err := DecodePartial(aggs, 0, 0, rest)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}
	if err := da.Merge(db); err != nil {
		t.Fatal(err)
	}
	got := da.Estimates(nil)
	want := whole.Estimates(nil)
	if len(got) != 3 || len(want) != 3 {
		t.Fatalf("estimate arity %d/%d", len(got), len(want))
	}
	// HLL estimate of split-and-merged equals direct exactly; t-digests
	// agree to within rank tolerance.
	if got[0] != want[0] {
		t.Fatalf("merged HLL estimate %v != direct %v", got[0], want[0])
	}
	for i := 1; i < 3; i++ {
		if relDiff(got[i], want[i]) > 0.05 {
			t.Fatalf("agg %d: merged %v vs direct %v", i, got[i], want[i])
		}
	}
	// Merge with a mismatched spec list is rejected.
	other, _ := NewPartial([]Agg{{Kind: Distinct, Input: 0}}, 0, 0)
	if err := da.Merge(other); err == nil {
		t.Fatal("spec mismatch accepted")
	}
	// Decode against the wrong spec list is rejected.
	if _, _, err := DecodePartial([]Agg{{Kind: Quantile, Input: 1, Q: 0.5}}, 0, 0, a.AppendBinary(nil)); err == nil {
		t.Fatal("wrong spec decode accepted")
	}
}

func relDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

func TestPartialOutOfRangeInput(t *testing.T) {
	aggs := []Agg{{Kind: Distinct, Input: 9}}
	p, err := NewPartial(aggs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Observe([]uint32{1, 2}) // Input 9 out of range → observes 0
	if est := p.Estimates(nil)[0]; est < 0.5 || est > 1.5 {
		t.Fatalf("out-of-range input should observe one value, estimate %v", est)
	}
}

// TestPartialResetMatchesFresh: a pooled partial whose HLL went dense in
// one pane and whose t-digest flushed centroids, once Reset and fed the
// same three values as a fresh partial, serializes to the same blob and
// estimates the same bits.
func TestPartialResetMatchesFresh(t *testing.T) {
	aggs := []Agg{{Kind: Distinct, Input: 1}, {Kind: Quantile, Input: 2, Q: 0.5}, {Kind: Quantile, Input: 2, Q: 0.99}}
	pooled, err := NewPartial(aggs, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 2000; i++ {
		pooled.Observe([]uint32{0, i * 2654435761, i % 977})
	}
	if pooled.hll[0].regs == nil {
		t.Fatal("2000 distinct values left a precision-8 HLL sparse; the test is vacuous")
	}
	pooled.Reset()
	fresh, _ := NewPartial(aggs, 8, 0)
	for _, v := range [][]uint32{{0, 7, 30}, {0, 9, 10}, {0, 7, 20}} {
		pooled.Observe(v)
		fresh.Observe(v)
	}
	if !bytes.Equal(pooled.AppendBinary(nil), fresh.AppendBinary(nil)) {
		t.Error("reset partial serializes differently from a fresh one")
	}
	got, want := pooled.Estimates(nil), fresh.Estimates(nil)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("estimate %d: reset partial %v, fresh %v", i, got[i], want[i])
		}
	}
}

// DecodeFrom through one reused partial must leave exactly what
// DecodePartial builds, whatever the partial held before, and must not
// allocate for an HLL-only spec list.
func TestDecodeFromReplacesState(t *testing.T) {
	aggs := []Agg{{Kind: Distinct, Input: 1}, {Kind: Quantile, Input: 2, Q: 0.5}}
	rng := rand.New(rand.NewSource(5))
	reused, err := NewPartial(aggs, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for round, n := range []int{500, 0, 3, 2000} {
		src, _ := NewPartial(aggs, 10, 0)
		for i := 0; i < n; i++ {
			src.Observe([]uint32{0, rng.Uint32(), uint32(rng.Intn(1000))})
		}
		blob := src.AppendBinary(nil)
		rest, err := reused.DecodeFrom(10, 0, append(blob, 0xEE))
		if err != nil || len(rest) != 1 {
			t.Fatalf("round %d: rest %d, err %v", round, len(rest), err)
		}
		fresh, _, err := DecodePartial(aggs, 10, 0, blob)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reused.AppendBinary(nil), fresh.AppendBinary(nil)) {
			t.Fatalf("round %d: reused partial differs from a fresh decode", round)
		}
	}
	if _, err := reused.DecodeFrom(12, 0, reused.AppendBinary(nil)); err == nil {
		t.Fatal("blob of precision 10 decoded at precision 12")
	}

	hllOnly := aggs[:1]
	p, _ := NewPartial(hllOnly, 10, 0)
	p.Observe([]uint32{0, 7, 0})
	blob := p.AppendBinary(nil)
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := p.DecodeFrom(10, 0, blob); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("HLL-only DecodeFrom averaged %.1f allocs, want 0", avg)
	}
}
