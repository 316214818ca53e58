// A t-digest-style quantile summary (Dunning & Ertl). Centroids carry
// (mean, count); the size limit for a centroid at quantile q is
// 4·n·q(1−q)/δ, so resolution concentrates at the tails. Unlike the
// textbook randomized variant, this implementation is fully
// deterministic: inserts buffer into a fixed-capacity slice and every
// rebuild sorts the combined centroid+buffer set by (mean, count)
// before a single left-to-right merge pass. Determinism is what lets
// the engine checkpoint digests byte-identically and lets the merge be
// bitwise commutative (merge(a,b) and merge(b,a) serialize equal).
package sketch

import (
	"fmt"
	"math"
	"sort"
)

// DefaultCompression is the δ knob: ~2·δ centroids retained, quantile
// rank error roughly 1/δ at the median and tighter at the tails.
const DefaultCompression = 100

// TDigest is a mergeable quantile summary over float64 values. The zero
// value is not usable; construct with NewTDigest.
type TDigest struct {
	comp  float64
	mean  []float64
	cnt   []float64
	total float64 // sum of cnt
	min   float64
	max   float64
	n     uint64 // observations via Add (not Merge)
	buf   []float64
}

// NewTDigest creates a digest with the given compression (δ); 0 selects
// DefaultCompression.
func NewTDigest(compression float64) (*TDigest, error) {
	if compression == 0 {
		compression = DefaultCompression
	}
	if compression < 10 || compression > 10000 || math.IsNaN(compression) {
		return nil, fmt.Errorf("sketch: compression must be in [10, 10000], got %v", compression)
	}
	return &TDigest{comp: compression, min: math.Inf(1), max: math.Inf(-1)}, nil
}

// Compression returns the δ knob the digest was built with.
func (d *TDigest) Compression() float64 { return d.comp }

// Count returns the total weight of observations summarized.
func (d *TDigest) Count() float64 { return d.total + float64(len(d.buf)) }

// bufLimit bounds the insert buffer; flushing at a fixed size keeps the
// centroid set a deterministic function of the insertion sequence.
func (d *TDigest) bufLimit() int {
	n := int(4 * d.comp)
	if n < 32 {
		n = 32
	}
	return n
}

// Add observes one value.
func (d *TDigest) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	if v < d.min {
		d.min = v
	}
	if v > d.max {
		d.max = v
	}
	d.n++
	d.buf = append(d.buf, v)
	if len(d.buf) >= d.bufLimit() {
		d.flush()
	}
}

// item is a (mean, count) pair staged for a rebuild.
type centroidItem struct {
	mean float64
	cnt  float64
}

// flush folds the buffer into the centroid set via a full deterministic
// rebuild: sort everything by (mean, count), then merge left to right
// under the t-digest size limit.
func (d *TDigest) flush() {
	if len(d.buf) == 0 {
		return
	}
	items := make([]centroidItem, 0, len(d.mean)+len(d.buf))
	for i := range d.mean {
		items = append(items, centroidItem{d.mean[i], d.cnt[i]})
	}
	for _, v := range d.buf {
		items = append(items, centroidItem{v, 1})
	}
	d.total += float64(len(d.buf))
	d.buf = d.buf[:0]
	d.rebuild(items)
}

// rebuild replaces the centroid set with a merged pass over items.
// Items must collectively carry weight d.total.
func (d *TDigest) rebuild(items []centroidItem) {
	sort.Slice(items, func(i, j int) bool {
		if items[i].mean != items[j].mean {
			return items[i].mean < items[j].mean
		}
		return items[i].cnt < items[j].cnt
	})
	d.mean = d.mean[:0]
	d.cnt = d.cnt[:0]
	var curM, curC, wSoFar float64
	started := false
	for _, it := range items {
		if !started {
			curM, curC = it.mean, it.cnt
			started = true
			continue
		}
		proposed := curC + it.cnt
		q := (wSoFar + proposed/2) / d.total
		limit := 4 * d.total * q * (1 - q) / d.comp
		if proposed <= limit {
			// Weighted-mean update keeps the merge order-insensitive
			// given the deterministic sort above.
			curM += it.cnt * (it.mean - curM) / proposed
			curC = proposed
			continue
		}
		d.mean = append(d.mean, curM)
		d.cnt = append(d.cnt, curC)
		wSoFar += curC
		curM, curC = it.mean, it.cnt
	}
	if started {
		d.mean = append(d.mean, curM)
		d.cnt = append(d.cnt, curC)
	}
}

// Merge folds another digest into d. Both digests are flushed and the
// union of their centroid sets is rebuilt under d's size limit, so
// Merge(a,b) and Merge(b,a) produce byte-identical digests.
func (d *TDigest) Merge(other *TDigest) error {
	if other == nil || other.comp != d.comp {
		return fmt.Errorf("sketch: t-digest compression mismatch")
	}
	d.flush()
	o := other
	if len(o.buf) != 0 {
		o = other.Clone()
		o.flush()
	}
	if o.total == 0 {
		return nil
	}
	if o.min < d.min {
		d.min = o.min
	}
	if o.max > d.max {
		d.max = o.max
	}
	d.n += o.n
	items := make([]centroidItem, 0, len(d.mean)+len(o.mean))
	for i := range d.mean {
		items = append(items, centroidItem{d.mean[i], d.cnt[i]})
	}
	for i := range o.mean {
		items = append(items, centroidItem{o.mean[i], o.cnt[i]})
	}
	d.total += o.total
	d.rebuild(items)
	return nil
}

// Quantile returns an estimate of the q-th quantile (q in [0,1]) via
// midpoint interpolation between adjacent centroids. Returns NaN on an
// empty digest.
func (d *TDigest) Quantile(q float64) float64 {
	d.flush()
	if d.total == 0 || len(d.mean) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return d.min
	}
	if q >= 1 {
		return d.max
	}
	target := q * d.total
	wSoFar := 0.0
	for i := range d.mean {
		mid := wSoFar + d.cnt[i]/2
		if target < mid {
			if i == 0 {
				// Interpolate from the true minimum into the first centroid.
				frac := target / mid
				return clamp(d.min+frac*(d.mean[0]-d.min), d.min, d.max)
			}
			prevMid := wSoFar - d.cnt[i-1]/2
			frac := (target - prevMid) / (mid - prevMid)
			return clamp(d.mean[i-1]+frac*(d.mean[i]-d.mean[i-1]), d.min, d.max)
		}
		wSoFar += d.cnt[i]
	}
	// Past the last centroid midpoint: interpolate toward the true max.
	last := len(d.mean) - 1
	lastMid := wSoFar - d.cnt[last]/2
	frac := (target - lastMid) / (d.total - lastMid)
	return clamp(d.mean[last]+frac*(d.max-d.mean[last]), d.min, d.max)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Reset empties the digest.
func (d *TDigest) Reset() {
	d.mean = d.mean[:0]
	d.cnt = d.cnt[:0]
	d.buf = d.buf[:0]
	d.total = 0
	d.n = 0
	d.min = math.Inf(1)
	d.max = math.Inf(-1)
}

// Clone returns an independent copy.
func (d *TDigest) Clone() *TDigest {
	return &TDigest{
		comp:  d.comp,
		mean:  append([]float64(nil), d.mean...),
		cnt:   append([]float64(nil), d.cnt...),
		total: d.total,
		min:   d.min,
		max:   d.max,
		n:     d.n,
		buf:   append([]float64(nil), d.buf...),
	}
}

// AppendBinary serializes the digest, preserving the unflushed insert
// buffer verbatim so a decode(encode(d)) round trip is state-identical —
// the property engine checkpoints rely on for byte-identical resume.
func (d *TDigest) AppendBinary(dst []byte) []byte {
	dst = appendF64(dst, d.comp)
	dst = appendU64(dst, d.n)
	dst = appendF64(dst, d.total)
	dst = appendF64(dst, d.min)
	dst = appendF64(dst, d.max)
	dst = appendU32(dst, uint32(len(d.mean)))
	for i := range d.mean {
		dst = appendF64(dst, d.mean[i])
		dst = appendF64(dst, d.cnt[i])
	}
	dst = appendU32(dst, uint32(len(d.buf)))
	for _, v := range d.buf {
		dst = appendF64(dst, v)
	}
	return dst
}

// maxDigestCentroids bounds decode allocations against corrupt blobs: a
// legal digest at the maximum compression holds well under 4·10000
// centroids, and the buffer is capped at bufLimit.
const maxDigestCentroids = 1 << 16

// DecodeTDigest parses one digest from the front of data and returns
// the remaining bytes.
func DecodeTDigest(data []byte) (*TDigest, []byte, error) {
	comp, data, err := takeF64(data)
	if err != nil {
		return nil, nil, err
	}
	d, err := NewTDigest(comp)
	if err != nil {
		return nil, nil, err
	}
	if d.n, data, err = takeU64(data); err != nil {
		return nil, nil, err
	}
	if d.total, data, err = takeF64(data); err != nil {
		return nil, nil, err
	}
	if d.min, data, err = takeF64(data); err != nil {
		return nil, nil, err
	}
	if d.max, data, err = takeF64(data); err != nil {
		return nil, nil, err
	}
	var nc uint32
	if nc, data, err = takeU32(data); err != nil {
		return nil, nil, err
	}
	if nc > maxDigestCentroids {
		return nil, nil, fmt.Errorf("sketch: t-digest blob claims %d centroids", nc)
	}
	for i := uint32(0); i < nc; i++ {
		var m, c float64
		if m, data, err = takeF64(data); err != nil {
			return nil, nil, err
		}
		if c, data, err = takeF64(data); err != nil {
			return nil, nil, err
		}
		if math.IsNaN(m) || math.IsNaN(c) || c <= 0 {
			return nil, nil, fmt.Errorf("sketch: t-digest blob has invalid centroid")
		}
		d.mean = append(d.mean, m)
		d.cnt = append(d.cnt, c)
	}
	var nb uint32
	if nb, data, err = takeU32(data); err != nil {
		return nil, nil, err
	}
	if int(nb) > d.bufLimit() {
		return nil, nil, fmt.Errorf("sketch: t-digest blob buffer %d exceeds limit %d", nb, d.bufLimit())
	}
	for i := uint32(0); i < nb; i++ {
		var v float64
		if v, data, err = takeF64(data); err != nil {
			return nil, nil, err
		}
		d.buf = append(d.buf, v)
	}
	if math.IsNaN(d.total) || d.total < 0 || (d.total > 0 && nc == 0) {
		return nil, nil, fmt.Errorf("sketch: t-digest blob has inconsistent totals")
	}
	return d, data, nil
}
