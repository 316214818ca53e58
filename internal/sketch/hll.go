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
type HLL struct {
	p    uint8
	regs []uint8
}

// MinPrecision and MaxPrecision bound the register-count exponent.
const (
	MinPrecision = 4
	MaxPrecision = 16
)

// DefaultPrecision gives 4096 registers: ≈1.6% standard error in 4 KB.
const DefaultPrecision = 12

// New creates a counter with 2^precision registers.
func New(precision uint8) (*HLL, error) {
	if precision < MinPrecision || precision > MaxPrecision {
		return nil, fmt.Errorf("sketch: precision must be in [%d, %d], got %d", MinPrecision, MaxPrecision, precision)
	}
	return &HLL{p: precision, regs: make([]uint8, 1<<precision)}, nil
}

// MustNew is New that panics on error.
func MustNew(precision uint8) *HLL {
	h, err := New(precision)
	if err != nil {
		panic(err)
	}
	return h
}

// Precision returns the register-count exponent.
func (h *HLL) Precision() uint8 { return h.p }

// SizeBytes returns the memory footprint of the register array.
func (h *HLL) SizeBytes() int { return len(h.regs) }

// Add observes one element by its 64-bit hash. The hash must be well
// mixed (use AddKey for raw attribute values).
func (h *HLL) Add(hash uint64) {
	idx := hash >> (64 - h.p)
	// Rank: position of the leftmost 1 in the remaining bits, 1-based.
	rest := hash<<h.p | 1<<(h.p-1) // sentinel guarantees a terminating 1
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > h.regs[idx] {
		h.regs[idx] = rank
	}
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
// partial sum of either order is exact in a float64 and the two orders
// agree to the bit; a sketch with a larger rank takes the register-order
// sum itself.
func (h *HLL) Estimate() float64 {
	m := float64(len(h.regs))
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
	sum := 0.0
	if int(h.p)+int(top) <= 53 {
		for r, n := range hist[:int(top)+1] {
			sum += float64(n) * invPow2[r]
		}
	} else {
		for _, r := range h.regs {
			sum += invPow2[r]
		}
	}
	zeros := hist[0]
	est := alpha(len(h.regs)) * m * m / sum
	// Small-range correction: linear counting while registers are mostly
	// empty.
	if est <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
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
// h estimates the union.
func (h *HLL) Merge(other *HLL) error {
	if other == nil || other.p != h.p {
		return fmt.Errorf("sketch: precision mismatch")
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
	return nil
}

// Reset empties the counter.
func (h *HLL) Reset() {
	for i := range h.regs {
		h.regs[i] = 0
	}
}

// Clone returns an independent copy.
func (h *HLL) Clone() *HLL {
	return &HLL{p: h.p, regs: append([]uint8(nil), h.regs...)}
}

// AppendBinary serializes the counter as one precision byte followed by
// the raw register array. Register-max merge means the serialized form
// of a merged counter is exactly the lane-wise max of the inputs, so
// HLL partials shipped between pipeline levels compose losslessly.
func (h *HLL) AppendBinary(dst []byte) []byte {
	dst = append(dst, h.p)
	return append(dst, h.regs...)
}

// DecodeHLL parses one counter from the front of data and returns the
// remaining bytes.
func DecodeHLL(data []byte) (*HLL, []byte, error) {
	if len(data) < 1 {
		return nil, nil, fmt.Errorf("sketch: hll blob truncated")
	}
	p := data[0]
	if p < MinPrecision || p > MaxPrecision {
		return nil, nil, fmt.Errorf("sketch: hll blob precision %d out of range", p)
	}
	n := 1 << p
	if len(data) < 1+n {
		return nil, nil, fmt.Errorf("sketch: hll blob truncated: want %d register bytes, have %d", n, len(data)-1)
	}
	h := &HLL{p: p, regs: append([]uint8(nil), data[1:1+n]...)}
	return h, data[1+n:], nil
}
