// Grouped-table generalization of the collision model.
//
// Since PR 6 the hashtab tables probe s = 16 slots per hash group (one
// fingerprint vector covers the group), and a probe evicts only when all
// s co-hashed slots hold other keys. The paper's Equation 13 is the
// s = 1 case of a straightforward generalization. A table of b slots
// holds ng = ⌈b/s⌉ groups: ng-1 full groups of s slots and a final group
// of w = b - (ng-1)·s usable slots (w = s when s divides b). The number
// of distinct keys hashing to a probe's group is K ~ Binomial(g, 1/ng),
// and with k > c keys cycling over a group of c slots a probe misses
// (evicts) with probability (k-c)/k: the c slots stay full, so exactly
// k-c of the group's k keys are displaced at any instant, and a
// uniformly random probe hits a displaced key with that frequency.
// Weighting the two group widths,
//
//	x(g, b, s) = [ (ng-1)·E[(K-s)⁺] + E[(K-w)⁺] ] / g
//
// with E[(K-c)⁺] = Σ_{k>c} pmf(k)·(k-c)                  (PreciseSlots)
//
//	= g/ng - c + Σ_{k<c} pmf(k)·(c-k)        (ClosedSlots)
//
// The partial group is not a nicety: at light load the s-slot groups
// almost never fill, and the one narrow group contributes most of the
// measured collisions (g=552, b=1000, s=16: the 8-slot remainder group
// raises x from 0.0018 to 0.0043, which is what the tables measure).
//
// At s = 1 every group has width 1 and both forms reduce exactly to the
// paper's Equation 13 and its closed form (TestSlotsReduceToPaper pins
// this), so the single-slot API above remains the paper-faithful model
// and the planner's default; the *Slots variants are what
// measured-vs-model experiments compare against, since the tables being
// measured have s = 16 physics. Rough (Equation 10) is geometry-free —
// it argues from expected occupancy of the whole table — and needs no
// variant.
package collision

import (
	"math"
	"sync"
)

// TableSlots is the slots-per-group geometry of the hashtab tables the
// measured experiments run on (hashtab.GroupSlots; a cross-package test
// keeps the two constants equal).
const TableSlots = 16

// PreciseSlots is the grouped-geometry collision rate evaluated the way
// Section 4.4 prescribes for Equation 13: sum the per-k contributions of
// the binomial occupancy distribution up to μ + 5σ. s is the number of
// slots per probe group; s ≤ 1 delegates to the paper's Precise. When
// the occupancy mean is so large that the binomial pmf(0) leaves the
// normal float range (μ ≳ 708 — deeply saturated tables), the exact
// closed form is used instead.
func PreciseSlots(g, b, s float64) float64 {
	if g <= 0 || b <= 0 {
		return 0
	}
	if s <= 1 {
		return Precise(g, b)
	}
	ng := math.Ceil(b / s)
	if ng <= 1 {
		// Single (possibly partial) group of b usable slots: of g equally
		// likely keys, b reside.
		return clamp01(1 - b/g)
	}
	w := b - (ng-1)*s
	mu := g / ng
	lp0 := g * math.Log1p(-1/ng)
	if lp0 < logMinNormal {
		// Binomial underflow (pmf(0) not a normal float): the table is
		// saturated far past the Gaussian window; the closed form's
		// below-width sums are exact and robust.
		return ClosedSlots(g, b, s)
	}
	pmf := math.Exp(lp0)
	sigma := math.Sqrt(g * (1 - 1/ng) / ng)
	kmax := int(math.Ceil(mu + 5*sigma))
	// Keep at least ~10 terms past the group width, mirroring Precise's
	// floor for tiny μ.
	if kmax < int(s)+10 {
		kmax = int(s) + 10
	}
	if kmax > int(g) {
		kmax = int(g)
	}
	// pmf(k) for K ~ Binomial(g, 1/ng) by the stable recurrence
	// pmf(k+1) = pmf(k)·(g-k)/((k+1)(ng-1)) from pmf(0) = (1-1/ng)^g.
	var overS, overW float64
	for k := 0; k < kmax; k++ {
		pmf *= (g - float64(k)) / (float64(k+1) * (ng - 1))
		// now pmf = P(K = k+1)
		if d := float64(k+1) - s; d > 0 {
			overS += pmf * d
		}
		if d := float64(k+1) - w; d > 0 {
			overW += pmf * d
		}
	}
	return clamp01(((ng-1)*overS + overW) / g)
}

// ClosedSlots is the exact closed form of the grouped model: the
// complementary (below-width) sums have at most ⌈s⌉ terms, so no
// truncation is needed, and binomial underflow at extreme saturation
// degrades gracefully (the below-width mass is genuinely ~0 there).
// s ≤ 1 delegates to the paper's Closed.
func ClosedSlots(g, b, s float64) float64 {
	if g <= 0 || b <= 0 {
		return 0
	}
	if s <= 1 {
		return Closed(g, b)
	}
	ng := math.Ceil(b / s)
	if ng <= 1 {
		return clamp01(1 - b/g)
	}
	w := b - (ng-1)*s
	mu := g / ng
	// E[(K-c)⁺] = μ - c + E[(c-K)⁺] for each width c ∈ {s, w}.
	pmf := math.Exp(g * math.Log1p(-1/ng))
	var underS, underW float64
	for k := 0; float64(k) < s; k++ {
		if d := s - float64(k); d > 0 {
			underS += pmf * d
		}
		if d := w - float64(k); d > 0 {
			underW += pmf * d
		}
		pmf *= (g - float64(k)) / (float64(k+1) * (ng - 1))
	}
	x := ((ng-1)*(mu-s+underS) + (mu - w + underW)) / g
	return clamp01(x)
}

// curveRefBucketsSlots is the reference b for tabulating grouped curves:
// a multiple of TableSlots, so the tabulated curve captures the pure
// r = g/b dependence without a partial-group term (which depends on
// b mod s, not on r, and belongs to per-table evaluation).
const curveRefBucketsSlots = 1024

// NewCurveSlots tabulates the grouped precise model at the reference
// table size and fits the same six-interval quadratic regression as
// NewCurve. The returned curve's Rate/RateGB take the same r = g/b
// (slots, not groups), so it drops in wherever the s = 1 curve is used.
func NewCurveSlots(s float64) *Curve {
	c := &Curve{slots: s}
	for r := 0.01; r <= 50.0005; r += 0.01 {
		c.rs = append(c.rs, r)
		c.xs = append(c.xs, PreciseSlots(r*curveRefBucketsSlots, curveRefBucketsSlots, s))
	}
	for i := 0; i+1 < len(curveBreaks); i++ {
		lo, hi := curveBreaks[i], curveBreaks[i+1]
		a, b2, c2 := c.fitQuadratic(lo, hi)
		c.intervals = append(c.intervals, interval{lo: lo, hi: hi, a: a, b: b2, c: c2})
	}
	return c
}

var (
	groupCurveOnce sync.Once
	groupCurve     *Curve
)

// DefaultGroupCurve is the shared fitted curve for the tables' actual
// TableSlots geometry, built on first use (construction tabulates the
// binomial model and costs a few milliseconds).
func DefaultGroupCurve() *Curve {
	groupCurveOnce.Do(func() { groupCurve = NewCurveSlots(TableSlots) })
	return groupCurve
}

// GroupRate is the grouped-geometry counterpart of Rate: the fitted
// TableSlots curve at g/b.
func GroupRate(g, b float64) float64 {
	return DefaultGroupCurve().RateGB(g, b)
}
