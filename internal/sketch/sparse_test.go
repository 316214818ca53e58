package sketch

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// denseRef is the counter as it was before the sparse store — one byte
// per register, Estimate a division per register summed in register
// order — and the reference every store and wire form is held to.
type denseRef struct {
	p    uint8
	regs []uint8
}

func newDenseRef(p uint8) *denseRef { return &denseRef{p: p, regs: make([]uint8, 1<<p)} }

// add is Add, and reports whether it touched an empty register.
func (d *denseRef) add(hash uint64) (fresh bool) {
	idx := hash >> (64 - d.p)
	rank := uint8(bits.LeadingZeros64(hash<<d.p|1<<(d.p-1))) + 1
	fresh = d.regs[idx] == 0
	d.regs[idx] = max(d.regs[idx], rank)
	return fresh
}

func (d *denseRef) merge(o *denseRef) {
	for i, r := range o.regs {
		d.regs[i] = max(d.regs[i], r)
	}
}

func (d *denseRef) estimate() float64 {
	m := float64(len(d.regs))
	sum := 0.0
	zeros := 0
	for _, r := range d.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	est := alpha(len(d.regs)) * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return est
}

func (d *denseRef) nonZero() (n int) {
	for _, r := range d.regs {
		if r != 0 {
			n++
		}
	}
	return n
}

// blob is the dense wire form, the only one there used to be.
func (d *denseRef) blob() []byte { return append([]byte{d.p}, d.regs...) }

// canonical is the form AppendBinary must choose: sparse where strictly
// shorter, written here from the format's definition.
func (d *denseRef) canonical() []byte {
	n := d.nonZero()
	if 3+3*n >= 1+len(d.regs) {
		return d.blob()
	}
	out := binary.LittleEndian.AppendUint16([]byte{0x80 | d.p}, uint16(n))
	for i, r := range d.regs {
		if r != 0 {
			out = append(binary.LittleEndian.AppendUint16(out, uint16(i)), r)
		}
	}
	return out
}

// hashFor returns a hash that Add files under register idx with the given
// rank (1 ≤ rank ≤ 64-p+1) at precision p.
func hashFor(p uint8, idx int, rank uint8) uint64 {
	h := uint64(idx) << (64 - p)
	if int(rank) <= 64-int(p) {
		h |= 1 << (64 - int(p) - int(rank))
	}
	return h
}

// sameAsRef holds one counter to the reference: the estimate to the bit,
// the blob to the byte.
func sameAsRef(t *testing.T, what string, h *HLL, ref *denseRef) {
	t.Helper()
	if got, want := h.Estimate(), ref.estimate(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: Estimate %v, reference %v", what, got, want)
	}
	if !bytes.Equal(h.AppendBinary(nil), ref.canonical()) {
		t.Fatalf("%s: blob differs from the reference's canonical form", what)
	}
}

// A counter fed the same adds as the reference must agree with it at
// every fill, across the switch to the dense store and across the wire
// rule's switch to the dense form — and so must a counter that was dense
// from the start, and one decoded from either wire form.
func TestSparseMatchesDenseReference(t *testing.T) {
	for _, p := range []uint8{4, 10, 12, 16} {
		rng := rand.New(rand.NewSource(int64(p)))
		m := 1 << p
		ref, h, pre := newDenseRef(p), MustNew(p), MustNew(p)
		for i := 0; i < m; i++ { // pre: dense before its first real add
			pre.Add(hashFor(p, i, 1))
		}
		pre.Reset()
		if sizeBytes(pre) != m {
			t.Fatalf("p=%d: Reset gave up the dense store", p)
		}
		wireLast := (m - 3) / 3 // largest n with 3+3n < 1+m
		near := func(n int) bool {
			for _, edge := range []int{0, m / 8, wireLast, m / 2} {
				if n >= edge-2 && n <= edge+2 {
					return true
				}
			}
			return false
		}
		nz := 0
		check := func(adds int) {
			sameAsRef(t, "built by adds", h, ref)
			sameAsRef(t, "built dense", pre, ref)
			for _, blob := range [][]byte{ref.blob(), ref.canonical()} {
				d := new(HLL)
				rest, err := d.decode(blob)
				if err != nil || len(rest) != 0 {
					t.Fatalf("p=%d after %d adds: decode: rest %d, err %v", p, adds, len(rest), err)
				}
				sameAsRef(t, "decoded", d, ref)
			}
			if (sizeBytes(h) == m) != (8*nz > m) {
				t.Fatalf("p=%d: %d registers held in %d bytes", p, nz, sizeBytes(h))
			}
		}
		check(0)
		for adds := 1; nz < m*3/4; adds++ {
			hash := rng.Uint64()
			if ref.add(hash) {
				nz++
			}
			h.Add(hash)
			pre.Add(hash)
			if near(nz) || adds%(m/4) == 0 {
				check(adds)
			}
		}
		check(-1)
	}
}

// The two thresholds, each at its last and first size, and the widest
// index the format carries.
func TestSparseThresholdEdges(t *testing.T) {
	for _, p := range []uint8{4, 10, 12, 16} {
		m := 1 << p
		h := MustNew(p)
		// Memory rule: sparse through 8n ≤ 2^p.
		for i := 0; i < m/8; i++ {
			h.Add(hashFor(p, m-1-i, uint8(1+i%5))) // descending: every insert at the front
		}
		if sizeBytes(h) != 4*(m/8) {
			t.Errorf("p=%d: %d registers take %d bytes, want the sparse list's %d", p, m/8, sizeBytes(h), 4*(m/8))
		}
		h.Add(hashFor(p, 0, 1))
		if sizeBytes(h) != m {
			t.Errorf("p=%d: %d registers take %d bytes, want the dense array's %d", p, m/8+1, sizeBytes(h), m)
		}
		// Wire rule: sparse while 3+3n < 1+2^p, from the values alone.
		last := (m - 3) / 3
		ref := newDenseRef(p)
		for i := 0; i < last; i++ {
			ref.regs[i] = 1
		}
		d := new(HLL)
		if _, err := d.decode(ref.blob()); err != nil {
			t.Fatal(err)
		}
		if blob := d.AppendBinary(nil); blob[0] != 0x80|p || len(blob) != 3+3*last {
			t.Errorf("p=%d: %d registers serialize to %d bytes, tag %#x; want sparse", p, last, len(blob), blob[0])
		}
		ref.regs[last] = 1
		d = new(HLL)
		if _, err := d.decode(ref.blob()); err != nil {
			t.Fatal(err)
		}
		if blob := d.AppendBinary(nil); blob[0] != p || len(blob) != 1+m {
			t.Errorf("p=%d: %d registers serialize to %d bytes, tag %#x; want dense", p, last+1, len(blob), blob[0])
		}
	}
	h := MustNew(16)
	h.Add(hashFor(16, 65535, 49))
	blob := h.AppendBinary(nil)
	if want := []byte{0x90, 1, 0, 0xff, 0xff, 49}; !bytes.Equal(blob, want) {
		t.Fatalf("p=16 idx 65535: blob % x, want % x", blob, want)
	}
	d := new(HLL)
	if _, err := d.decode(blob); err != nil {
		t.Fatal(err)
	}
	ref := newDenseRef(16)
	ref.regs[65535] = 49
	sameAsRef(t, "p=16 idx 65535", d, ref)
}

// malformedHLL is every way a sparse blob can be wrong, at precision 10.
var malformedHLL = map[string][]byte{
	"empty":                {},
	"bad precision":        {0x80 | 17, 0, 0},
	"no count":             {0x8a, 1},
	"truncated entry":      {0x8a, 2, 0, 5, 0, 1, 9, 0},
	"unsorted":             {0x8a, 2, 0, 9, 0, 1, 5, 0, 1},
	"duplicate":            {0x8a, 2, 0, 5, 0, 1, 5, 0, 2},
	"index past 2^p":       {0x8a, 1, 0, 0, 4, 1},
	"zero rank":            {0x8a, 1, 0, 5, 0, 0},
	"should be dense":      append([]byte{0x8a, 0x55, 0x01}, make([]byte, 3*341)...),
	"truncated dense":      append([]byte{10}, make([]byte, 1023)...),
	"should be dense, p=4": {0x84, 5, 0, 0, 0, 1, 1, 0, 1, 2, 0, 1, 3, 0, 1, 4, 0, 1},
}

func TestDecodeHLLRejectsMalformed(t *testing.T) {
	for name, blob := range malformedHLL {
		if _, err := new(HLL).decode(blob); err == nil {
			t.Errorf("%s: accepted", name)
		}
		// Over a counter that holds something, in either store: the error
		// must leave a counter that still works.
		for _, fill := range []int{3, 1024} {
			h := MustNew(10)
			for i := 0; i < fill; i++ {
				h.Add(hashFor(10, i, 2))
			}
			if _, err := h.decode(blob); err == nil {
				t.Errorf("%s over %d registers: accepted", name, fill)
			}
			h.Add(hashFor(h.p, 7, 3))
			if _, err := new(HLL).decode(h.AppendBinary(nil)); err != nil {
				t.Errorf("%s over %d registers: counter left unusable: %v", name, fill, err)
			}
		}
	}
}

// DecodeFrom over a reused partial takes either wire form into either
// store without allocating, and a counter that once went dense still
// writes the canonical blob for whatever it is handed next.
func TestDecodeFromEitherForm(t *testing.T) {
	aggs := []Agg{{Kind: Distinct, Input: 0}}
	few, many := newDenseRef(10), newDenseRef(10)
	for i := 0; i < 1024; i++ {
		if i%100 == 0 {
			few.regs[i] = 3
		}
		if i%2 == 0 {
			many.regs[i] = 2
		}
	}
	blobOf := func(b []byte) []byte { return append([]byte{1, uint8(Distinct)}, b...) }
	for _, wentDense := range []bool{false, true} {
		p, _ := NewPartial(aggs, 10, 0)
		if wentDense {
			if _, err := p.DecodeFrom(10, 0, blobOf(many.blob())); err != nil {
				t.Fatal(err)
			}
		}
		for _, in := range [][]byte{blobOf(few.blob()), blobOf(few.canonical())} {
			if avg := testing.AllocsPerRun(50, func() {
				if _, err := p.DecodeFrom(10, 0, in); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("wentDense=%v: DecodeFrom averaged %.1f allocs, want 0", wentDense, avg)
			}
			if got := p.AppendBinary(nil); !bytes.Equal(got, blobOf(few.canonical())) {
				t.Errorf("wentDense=%v: re-encoded blob is not canonical", wentDense)
			}
		}
	}
}

// FuzzDecodePartial: checkpoint blobs are outside input, and the partial
// decoder is where they reach the HLL and t-digest decoders. Whatever
// decodes must re-encode to something that decodes to the same bytes.
func FuzzDecodePartial(f *testing.F) {
	specs := [][]Agg{
		{{Kind: Distinct, Input: 0}},
		{{Kind: Quantile, Input: 1, Q: 0.5}, {Kind: Distinct, Input: 0}},
	}
	for si, aggs := range specs {
		for _, n := range []int{0, 2, 200, 900} { // empty, sparse, dense store in sparse form, dense form
			p, _ := NewPartial(aggs, 10, 0)
			for i := 0; i < n; i++ {
				p.Observe([]uint32{uint32(i), uint32(i * 7)})
			}
			f.Add(uint8(si), p.AppendBinary(nil))
		}
	}
	few := newDenseRef(10)
	few.regs[77] = 255
	f.Add(uint8(0), append([]byte{1, uint8(Distinct)}, few.blob()...))
	for _, blob := range malformedHLL {
		f.Add(uint8(0), append([]byte{1, uint8(Distinct)}, blob...))
	}
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		aggs := specs[int(sel)%len(specs)]
		p, _, err := DecodePartial(aggs, 10, 0, data)
		if err != nil {
			return
		}
		enc := p.AppendBinary(nil)
		q, rest, err := DecodePartial(aggs, 10, 0, enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded partial does not decode: rest %d, err %v", len(rest), err)
		}
		if !bytes.Equal(q.AppendBinary(nil), enc) {
			t.Fatal("decode→encode→decode→encode is not idempotent")
		}
		_ = q.Estimates(nil)
		if err := q.Merge(p); err != nil {
			t.Fatalf("merge of two decodes of one blob: %v", err)
		}
	})
}
