// Package sketch implements a HyperLogLog distinct counter.
//
// The optimizer's central statistical input is g_R, the number of groups
// of every relation in the feeding graph — including candidate phantoms
// that are *not* instantiated and therefore have no hash table measuring
// them. The paper computes these counts offline from the dataset; for the
// adaptive engine (re-planning between epochs as the stream drifts) they
// must be estimated online in bounded memory. A HyperLogLog register
// array per candidate relation costs 2^p bytes (4 KB at the default
// precision 12) and estimates distinct counts within ~1.04/√2^p ≈ 1.6%
// standard error, which is far below the cost model's own error budget.
package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// HLL is a HyperLogLog counter over 64-bit hashes. The zero value is not
// usable; construct with New.
//
// A counter holds exactly one of two register stores, chosen by fill. It
// starts sparse: a sorted list of the non-zero registers, one
// idx<<8|rank entry each, so a per-group, per-pane counter that saw two
// values costs two words to keep, merge, estimate and serialize. When
// the list would outgrow an eighth of the registers (8·n > 2^p, the list
// at half the dense array's bytes) it switches, one way, to the dense
// array; Reset keeps whichever store the counter has, so a counter that
// fills every epoch pays the switch once.
type HLL struct {
	p      uint8
	sparse []uint32 // ascending idx<<8|rank, rank ≥ 1; the store while regs == nil
	regs   []uint8  // 2^p registers once dense
}

// MinPrecision and MaxPrecision bound the register-count exponent.
const (
	MinPrecision = 4
	MaxPrecision = 16
)

// DefaultPrecision gives 4096 registers: ≈1.6% standard error in 4 KB.
const DefaultPrecision = 12

// New creates an empty counter with 2^precision registers.
func New(precision uint8) (*HLL, error) {
	if precision < MinPrecision || precision > MaxPrecision {
		return nil, fmt.Errorf("sketch: precision must be in [%d, %d], got %d", MinPrecision, MaxPrecision, precision)
	}
	return &HLL{p: precision}, nil
}

// MustNew is New that panics on error.
func MustNew(precision uint8) *HLL {
	h, err := New(precision)
	if err != nil {
		panic(err)
	}
	return h
}

// Add observes one element by its 64-bit hash. The hash must be well
// mixed (use AddKey for raw attribute values).
func (h *HLL) Add(hash uint64) {
	idx := uint32(hash >> (64 - h.p))
	// Rank: position of the leftmost 1 in the remaining bits, 1-based.
	rest := hash<<h.p | 1<<(h.p-1) // sentinel guarantees a terminating 1
	h.raise(idx, uint8(bits.LeadingZeros64(rest))+1)
}

// raise lifts register idx to at least rank (≥ 1).
func (h *HLL) raise(idx uint32, rank uint8) {
	if h.regs != nil {
		if rank > h.regs[idx] {
			h.regs[idx] = rank
		}
		return
	}
	s := h.sparse
	lo, hi := 0, len(s)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); s[mid]>>8 < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e := idx<<8 | uint32(rank)
	switch {
	case lo < len(s) && s[lo]>>8 == idx:
		s[lo] = max(s[lo], e)
	case 8*(len(s)+1) > 1<<h.p:
		h.densify()
		h.regs[idx] = rank
	default:
		s = append(s, 0)
		copy(s[lo+1:], s[lo:])
		s[lo] = e
		h.sparse = s
	}
}

// densify moves the sparse list into a new dense array, for good.
func (h *HLL) densify() {
	h.regs = make([]uint8, 1<<h.p)
	for _, e := range h.sparse {
		h.regs[e>>8] = uint8(e)
	}
	h.sparse = nil
}

// AddKey observes a group key of 4-byte attribute values.
func (h *HLL) AddKey(vals []uint32) { h.Add(mix(vals)) }

// mix is a 64-bit FNV-1a over the words with a murmur-style finalizer —
// the same construction as the LFTA tables use.
func mix(vals []uint32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	x := uint64(offset64)
	for _, v := range vals {
		x ^= uint64(v)
		x *= prime64
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// invPow2[r] is 1/float64(uint64(1)<<r), a register's term in the
// harmonic mean: exactly 2^-r for every rank Add can store (at most
// 64-MinPrecision+1), and +Inf, the quotient's value, for the larger bytes
// only a foreign blob can carry.
var invPow2 = func() (t [256]float64) {
	for r := range t {
		t[r] = 1 / float64(uint64(1)<<r)
	}
	return t
}()

// Estimate returns the approximate number of distinct elements added.
//
// The harmonic sum is Σ 2^-regs[i] taken in register order. A windowed
// count_distinct estimates every group of every closing window, mostly
// over sketches a few dozen records have touched, and a division and a
// dependent add per register made that the largest single cost of closing
// a window. So the registers are counted by value, all-zero words eight
// at a time, and the sum is taken over the counts. Every term is a
// multiple of 2^-top and the total at most 2^p, so while p+top ≤ 53 every
// partial sum of any order is exact in a float64 and all orders agree to
// the bit — which also lets a sparse counter add its few terms to the
// count of empty registers directly; a sketch with a larger rank takes the
// register-order sum itself.
func (h *HLL) Estimate() float64 {
	m := 1 << h.p
	var zeros uint32
	sum := 0.0
	if h.regs == nil {
		zeros = uint32(m - len(h.sparse))
		var top uint8
		for _, e := range h.sparse {
			top = max(top, uint8(e))
		}
		if int(h.p)+int(top) <= 53 {
			sum = float64(zeros)
			for _, e := range h.sparse {
				sum += invPow2[uint8(e)]
			}
		} else {
			next := 0
			for i := 0; i < m; i++ {
				var r uint8
				if next < len(h.sparse) && int(h.sparse[next]>>8) == i {
					r = uint8(h.sparse[next])
					next++
				}
				sum += invPow2[r]
			}
		}
	} else {
		var hist [256]uint32
		var top uint8
		zeroWords := 0
		for i := 0; i+8 <= len(h.regs); i += 8 { // 2^p registers, p ≥ 4
			if binary.LittleEndian.Uint64(h.regs[i:]) == 0 {
				zeroWords++
				continue
			}
			for _, r := range h.regs[i : i+8] {
				hist[r]++
				top = max(top, r)
			}
		}
		hist[0] += 8 * uint32(zeroWords)
		if int(h.p)+int(top) <= 53 {
			for r, n := range hist[:int(top)+1] {
				sum += float64(n) * invPow2[r]
			}
		} else {
			for _, r := range h.regs {
				sum += invPow2[r]
			}
		}
		zeros = hist[0]
	}
	mf := float64(m)
	est := alpha(m) * mf * mf / sum
	// Small-range correction: linear counting while registers are mostly
	// empty.
	if est <= 2.5*mf && zeros > 0 {
		return mf * math.Log(mf/float64(zeros))
	}
	return est
}

func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// Merge folds another counter of the same precision into h, after which
// h estimates the union: the register-wise maximum, whichever store
// either side holds.
func (h *HLL) Merge(other *HLL) error {
	if other == nil || other.p != h.p {
		return fmt.Errorf("sketch: precision mismatch")
	}
	switch {
	case other.regs == nil && h.regs == nil:
		h.mergeSparse(other.sparse)
	case other.regs == nil:
		for _, e := range other.sparse {
			h.regs[e>>8] = max(h.regs[e>>8], uint8(e))
		}
	default:
		if h.regs == nil {
			h.densify()
		}
		// Eight registers at a time past the stretches other never touched.
		for i := 0; i+8 <= len(other.regs); i += 8 {
			if binary.LittleEndian.Uint64(other.regs[i:]) == 0 {
				continue
			}
			dst := h.regs[i : i+8]
			for j, r := range other.regs[i : i+8] {
				if r > dst[j] {
					dst[j] = r
				}
			}
		}
	}
	return nil
}

// mergeSparse merges the sorted list b into h's own, in place and from
// the back: h.sparse grows by len(b), the larger entry of each step goes
// to the free end (one entry, the larger rank, where both lists hold a
// register), and the slots the shared registers saved are closed up.
func (h *HLL) mergeSparse(b []uint32) {
	na := len(h.sparse)
	a := append(h.sparse, b...)
	i, j, k := na-1, len(b)-1, len(a)-1
	for ; j >= 0; k-- {
		switch {
		case i >= 0 && a[i]>>8 > b[j]>>8:
			a[k] = a[i]
			i--
		case i >= 0 && a[i]>>8 == b[j]>>8:
			a[k] = max(a[i], b[j])
			i--
			j--
		default:
			a[k] = b[j]
			j--
		}
	}
	merged := copy(a[i+1:], a[k+1:])
	h.sparse = a[:i+1+merged]
	if 8*len(h.sparse) > 1<<h.p {
		h.densify()
	}
}

// Reset empties the counter, keeping its store.
func (h *HLL) Reset() {
	h.sparse = h.sparse[:0]
	clear(h.regs)
}

// Clone returns an independent copy.
func (h *HLL) Clone() *HLL {
	return &HLL{p: h.p, sparse: append([]uint32(nil), h.sparse...), regs: append([]uint8(nil), h.regs...)}
}

// sparseFlag marks the sparse wire form in the precision byte.
const sparseFlag = 0x80

// sparseLen returns the size of the sparse wire form of n non-zero
// registers.
func sparseLen(n int) int { return 3 + 3*n }

// AppendBinary serializes the counter in the shorter of two forms:
//
//	dense   p ‖ 2^p register bytes
//	sparse  0x80|p ‖ n:uint16le ‖ n × (idx:uint16le, rank:uint8)
//
// with idx strictly ascending and rank ≥ 1; dense on a tie. The choice
// looks at the register values alone, never at the store holding them,
// so a blob is a function of what the counter observed — two engines
// that saw the same records checkpoint the same bytes whatever their
// counters went through — and decode refuses the longer form.
// Register-max merge means the serialized form of a merged counter is
// exactly the lane-wise max of the inputs, so HLL partials shipped
// between pipeline levels compose losslessly.
func (h *HLL) AppendBinary(dst []byte) []byte {
	// A sparse store holds at most 2^p/8 registers, always the shorter
	// form sparse; only a dense one has to count.
	n := len(h.sparse)
	if h.regs != nil {
		if n = nonZero(h.regs); sparseLen(n) >= 1+len(h.regs) {
			return append(append(dst, h.p), h.regs...)
		}
	}
	dst = append(dst, sparseFlag|h.p, uint8(n), uint8(n>>8))
	for _, e := range h.sparse {
		dst = append(dst, uint8(e>>8), uint8(e>>16), uint8(e))
	}
	for i, r := range h.regs {
		if r != 0 {
			dst = append(dst, uint8(i), uint8(i>>8), r)
		}
	}
	return dst
}

// nonZero counts the non-zero registers, all-zero words eight at a time.
func nonZero(regs []uint8) int {
	n := 0
	for i := 0; i+8 <= len(regs); i += 8 {
		if binary.LittleEndian.Uint64(regs[i:]) == 0 {
			continue
		}
		for _, r := range regs[i : i+8] {
			if r != 0 {
				n++
			}
		}
	}
	return n
}

// decode replaces h's state with the counter at the front of data, in
// either wire form, and returns the remaining bytes. h keeps its store
// when the blob has its precision and the content fits it (a dense
// counter stays dense; a sparse one takes a dense blob's few registers
// as a list), so decoding blob after blob through one counter does not
// allocate. After an error h is a valid counter of unspecified content.
func (h *HLL) decode(data []byte) ([]byte, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("sketch: hll blob truncated")
	}
	p := data[0] &^ sparseFlag
	if p < MinPrecision || p > MaxPrecision {
		return nil, fmt.Errorf("sketch: hll blob precision %d out of range", p)
	}
	if p != h.p {
		*h = HLL{p: p}
	}
	m := 1 << p
	if data[0]&sparseFlag == 0 {
		if len(data) < 1+m {
			return nil, fmt.Errorf("sketch: hll blob truncated: want %d register bytes, have %d", m, len(data)-1)
		}
		body := data[1 : 1+m]
		if h.regs == nil && 8*nonZero(body) > m {
			h.densify()
		}
		if h.regs != nil {
			copy(h.regs, body)
			return data[1+m:], nil
		}
		h.sparse = h.sparse[:0]
		for i, r := range body {
			if r != 0 {
				h.sparse = append(h.sparse, uint32(i)<<8|uint32(r))
			}
		}
		return data[1+m:], nil
	}
	if len(data) < 3 {
		return nil, fmt.Errorf("sketch: hll blob truncated")
	}
	n := int(binary.LittleEndian.Uint16(data[1:]))
	if sparseLen(n) >= 1+m {
		return nil, fmt.Errorf("sketch: sparse hll blob of %d registers at precision %d should be dense", n, p)
	}
	if len(data) < sparseLen(n) {
		return nil, fmt.Errorf("sketch: hll blob truncated: want %d sparse entries, have %d bytes", n, len(data)-3)
	}
	h.Reset()
	if h.regs == nil && 8*n > m {
		h.densify()
	}
	body, rest := data[3:sparseLen(n)], data[sparseLen(n):]
	prev := -1
	for ; len(body) > 0; body = body[3:] {
		idx, rank := int(binary.LittleEndian.Uint16(body)), body[2]
		if idx <= prev || idx >= m || rank == 0 {
			return nil, fmt.Errorf("sketch: sparse hll blob entry (%d, %d) after index %d at precision %d", idx, rank, prev, p)
		}
		prev = idx
		if h.regs != nil {
			h.regs[idx] = rank
		} else {
			h.sparse = append(h.sparse, uint32(idx)<<8|uint32(rank))
		}
	}
	return rest, nil
}
