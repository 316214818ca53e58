// Package collision implements the paper's collision-rate model
// (Section 4): the probability that a probe of an LFTA hash table evicts
// the resident entry, as a function of the number of groups g and buckets
// b, for random and for clustered (flow) data.
//
// Three interchangeable estimators are provided:
//
//   - Rough: Equation 10, x = 1 - b/g, from the expected occupancy only;
//   - Precise: Equation 13, the binomial occupancy sum, evaluated with the
//     paper's Gaussian truncation (Section 4.4, sum up to μ+5σ);
//   - Closed: an exact closed form of the same sum,
//     x = 1 - (b/g)·(1 - (1-1/b)^g), which follows from
//     Σ_k pmf(k)·(k-1) = E[K] - 1 + P(K=0) for K ~ Binomial(g, 1/b).
//     It is used as a cross-check oracle in tests and as the tail of the
//     precomputed curve.
//
// Because the rate depends almost solely on the ratio r = g/b (Table 1 of
// the paper: variation under 1.5%), the package also precomputes the rate
// curve as a function of r and fits the paper's piecewise regression over
// six intervals (Figure 7) plus the low-rate linear law
// x ≈ 0.0267 + 0.354·r (Equation 16, Figure 8). The regression is what the
// optimizer evaluates: it costs a few ns instead of a binomial sum.
//
// For clustered data (Section 4.3), all packets of a flow occupy a bucket
// without internal collisions, so the random-data rate simply divides by
// the average flow length: Equation 15.
package collision

import (
	"fmt"
	"math"
)

// logMinNormal is ln 2^-1022: exp of anything lower is not a normal float64.
const logMinNormal = -708.3964185322641

// Rough is Equation 10: x = 1 - b/g, clamped to [0, 1]. It assumes every
// bucket holds exactly the expected g/b groups.
func Rough(g, b float64) float64 {
	if g <= 0 || b <= 0 || g <= b {
		return 0
	}
	return 1 - b/g
}

// Precise is Equation 13 evaluated the way Section 4.4 prescribes: sum the
// per-k collision contributions of the binomial occupancy distribution from
// k = 2 up to μ + 5σ (the Gaussian tail bound), where μ = g/b and
// σ² = g(1-1/b)/b. Past μ ≈ 708, where pmf(0) is no longer a normal
// float and the recurrence loses the sum, it returns Closed.
func Precise(g, b float64) float64 {
	if g <= 0 || b <= 0 {
		return 0
	}
	if b == 1 {
		// Single bucket: every probe of a non-resident group collides;
		// of g equally likely groups, (g-1)/g probes change the group.
		return (g - 1) / g
	}
	mu := g / b
	sigma := math.Sqrt(g * (1 - 1/b) / b)
	kmax := int(math.Ceil(mu + 5*sigma))
	// For tiny μ the Gaussian bound leaves too few terms (it can even fall
	// below k = 2); the paper hedges with "up to several more σ", which a
	// floor of 10 terms implements at negligible cost.
	if kmax < 10 {
		kmax = 10
	}
	if kmax > int(g) {
		kmax = int(g)
	}
	if kmax < 2 {
		return 0
	}
	// pmf(k) for K ~ Binomial(g, 1/b), computed by the stable recurrence
	// pmf(k+1) = pmf(k) · (g-k)/((k+1)(b-1)) from
	// pmf(0) = (1-1/b)^g = exp(g·log1p(-1/b)).
	lp0 := g * math.Log1p(-1/b)
	if lp0 < logMinNormal {
		return Closed(g, b)
	}
	pmf := math.Exp(lp0)
	sum := 0.0
	for k := 0; k < kmax; k++ {
		pmf *= (g - float64(k)) / (float64(k+1) * (b - 1))
		// now pmf = P(K = k+1)
		if k+1 >= 2 {
			sum += pmf * float64(k+1-1)
		}
	}
	x := (b / g) * sum
	return clamp01(x)
}

// Closed is the exact closed form of Equation 13 without truncation:
// x = 1 - (b/g)·(1 - (1-1/b)^g).
func Closed(g, b float64) float64 {
	if g <= 0 || b <= 0 {
		return 0
	}
	if b == 1 {
		return (g - 1) / g
	}
	x := 1 - (b/g)*(1-math.Exp(g*math.Log1p(-1/b)))
	return clamp01(x)
}

// ProbOfK is the per-k collision contribution plotted in Figure 6:
// (b/g)·P(K=k)·(k-1) for K ~ Binomial(g, 1/b).
func ProbOfK(g, b float64, k int) float64 {
	if k < 2 || float64(k) > g || b <= 1 {
		return 0
	}
	// log pmf via lgamma for arbitrary k.
	lg := func(x float64) float64 { v, _ := math.Lgamma(x); return v }
	logPmf := lg(g+1) - lg(float64(k)+1) - lg(g-float64(k)+1) +
		float64(k)*math.Log(1/b) + (g-float64(k))*math.Log1p(-1/b)
	return (b / g) * math.Exp(logPmf) * float64(k-1)
}

// TruncationBound returns the paper's μ+5σ summation bound for (g, b).
func TruncationBound(g, b float64) int {
	mu := g / b
	sigma := math.Sqrt(g * (1 - 1/b) / b)
	return int(math.Ceil(mu + 5*sigma))
}

// Clustered is Equation 15: the random-data rate divided by the average
// flow length l_a (l_a = 1 recovers the random case).
func Clustered(x, flowLen float64) float64 {
	if flowLen < 1 {
		flowLen = 1
	}
	return clamp01(x / flowLen)
}

func clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	default:
		return x
	}
}

// Equation 16's published coefficients for the low-rate linear law
// x ≈ LinearAlpha + LinearMu·(g/b), valid while x ≲ 0.4.
const (
	LinearAlpha = 0.0267
	LinearMu    = 0.354
)

// LinearLow evaluates Equation 16.
func LinearLow(r float64) float64 {
	if r <= 0 {
		return 0
	}
	return clamp01(LinearAlpha + LinearMu*r)
}

// Mu is the slope used throughout the space-allocation analysis
// (Section 5 approximates x ≈ μ·g/b).
const Mu = LinearMu

// Curve is the precomputed collision-rate curve of Section 4.4: the
// precise model tabulated as a function of r = g/b at a reference table
// size, with the paper's six-interval quadratic regression fitted over it.
// Evaluating the curve costs a handful of float operations, which is what
// makes configuration search take "only a few milliseconds".
type Curve struct {
	intervals []interval
	rs        []float64 // tabulation grid, ascending
	xs        []float64 // tabulated precise rates
	slots     float64   // slots per probe group tabulated (0 or 1 = paper's one-slot model)
}

type interval struct {
	lo, hi  float64
	a, b, c float64 // x(r) = a + b·r + c·r²
}

// curveRefBuckets is the reference b used to tabulate the curve; Table 1
// shows the r-dependence varies by under 1.5% across b ∈ [300, 3000].
const curveRefBuckets = 1000

// Paper-faithful interval boundaries: six intervals covering Figure 7's
// r ∈ (0, 50] domain, finer where the curve bends (the paper reports a
// six-interval split achieving ≤5% relative error per interval).
var curveBreaks = []float64{0, 0.3, 0.8, 1.8, 4, 10, 50}

// NewCurve tabulates the precise model and fits the piecewise regression.
func NewCurve() *Curve {
	c := &Curve{}
	// Tabulate on a grid dense enough for both regression and the
	// interpolation fallback used outside the fitted range.
	for r := 0.01; r <= 50.0005; r += 0.01 {
		c.rs = append(c.rs, r)
		c.xs = append(c.xs, Precise(r*curveRefBuckets, curveRefBuckets))
	}
	for i := 0; i+1 < len(curveBreaks); i++ {
		lo, hi := curveBreaks[i], curveBreaks[i+1]
		a, b2, c2 := c.fitQuadratic(lo, hi)
		c.intervals = append(c.intervals, interval{lo: lo, hi: hi, a: a, b: b2, c: c2})
	}
	return c
}

// fitQuadratic fits x = a + b·r + c·r² over grid points in (lo, hi] by
// weighted least squares with weights 1/x², i.e. it minimizes *relative*
// residuals, which is the error metric the paper reports per interval.
func (c *Curve) fitQuadratic(lo, hi float64) (a, b, cc float64) {
	// Normal equations for the 3-parameter weighted fit.
	var s [5]float64 // Σ w·r^0..r^4
	var t [3]float64 // Σ w·x·r^0..r^2
	for i, r := range c.rs {
		if r <= lo || r > hi {
			continue
		}
		x := c.xs[i]
		wx := math.Max(x, 1e-4)
		w := 1 / (wx * wx)
		rp := 1.0
		for j := 0; j < 5; j++ {
			s[j] += w * rp
			if j < 3 {
				t[j] += w * x * rp
			}
			rp *= r
		}
	}
	// Solve the 3x3 system [s0 s1 s2; s1 s2 s3; s2 s3 s4]·[a b c] = t.
	m := [3][4]float64{
		{s[0], s[1], s[2], t[0]},
		{s[1], s[2], s[3], t[1]},
		{s[2], s[3], s[4], t[2]},
	}
	for col := 0; col < 3; col++ {
		// Partial pivot.
		p := col
		for row := col + 1; row < 3; row++ {
			if math.Abs(m[row][col]) > math.Abs(m[p][col]) {
				p = row
			}
		}
		m[col], m[p] = m[p], m[col]
		if m[col][col] == 0 {
			return 0, 0, 0
		}
		for row := 0; row < 3; row++ {
			if row == col {
				continue
			}
			f := m[row][col] / m[col][col]
			for k := col; k < 4; k++ {
				m[row][k] -= f * m[col][k]
			}
		}
	}
	return m[0][3] / m[0][0], m[1][3] / m[1][1], m[2][3] / m[2][2]
}

// Rate evaluates the fitted curve at r = g/b. Outside the fitted range it
// falls back to the closed form, which the curve converges to.
func (c *Curve) Rate(r float64) float64 {
	if r <= 0 {
		return 0
	}
	for _, iv := range c.intervals {
		if r > iv.lo && r <= iv.hi {
			return clamp01(iv.a + iv.b*r + iv.c*r*r)
		}
	}
	if c.slots > 1 {
		return ClosedSlots(r*curveRefBucketsSlots, curveRefBucketsSlots, c.slots)
	}
	return Closed(r*curveRefBuckets, curveRefBuckets)
}

// RateGB evaluates the curve for a concrete table: r = g/b.
func (c *Curve) RateGB(g, b float64) float64 {
	if b <= 0 {
		return 1
	}
	return c.Rate(g / b)
}

// FitLinearLow regresses a line over the tabulated curve where x ≤ maxX
// (Figure 8's zoom region), returning the fitted alpha and mu, comparable
// to Equation 16's published 0.0267 and 0.354.
func (c *Curve) FitLinearLow(maxX float64) (alpha, mu float64, err error) {
	var n, sr, sx, srr, srx float64
	for i, r := range c.rs {
		if c.xs[i] > maxX {
			continue
		}
		n++
		sr += r
		sx += c.xs[i]
		srr += r * r
		srx += r * c.xs[i]
	}
	if n < 2 {
		return 0, 0, fmt.Errorf("collision: no tabulated points with x ≤ %v", maxX)
	}
	den := n*srr - sr*sr
	if den == 0 {
		return 0, 0, fmt.Errorf("collision: degenerate regression")
	}
	mu = (n*srx - sr*sx) / den
	alpha = (sx - mu*sr) / n
	return alpha, mu, nil
}

// DefaultCurve is a process-wide fitted curve; building one costs a few
// milliseconds, so it is shared.
var DefaultCurve = NewCurve()

// Rate is the package-level convenience used by the cost model: the fitted
// curve at g/b, i.e. the estimator the paper's optimizer runs on.
func Rate(g, b float64) float64 {
	return DefaultCurve.RateGB(g, b)
}
