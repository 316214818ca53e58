package query

import (
	"math/bits"
	"sort"

	"repro/internal/selvec"
)

// This file compiles a WHERE Filter (DNF over attr-op-constant
// predicates) into branch-free columnar kernels. The six comparison
// ops normalize onto two machine predicates — equality and unsigned
// less-than — plus a complement bit, with the int64 constant folded
// against the uint32 attribute domain at compile time:
//
//	a =  v : out of [0, 2³²)  → false,        else  a == v
//	a != v : out of range     → true,         else ¬(a == v)
//	a <  v : v ≤ 0 → false;   v > max → true; else  a < v
//	a <= v : v < 0 → false;   v ≥ max → true; else  a < v+1
//	a >  v : v < 0 → true;    v ≥ max → false; else ¬(a < v+1)
//	a >= v : v ≤ 0 → true;    v > max → false; else ¬(a < v)
//
// A constant-false predicate makes its whole conjunction unsatisfiable,
// so the conjunction is dropped. A constant-true predicate contributes
// no kernel work but NOT nothing: the interpreted Predicate.Match
// returns false whenever the attribute index is out of range of the
// record, even for a vacuously true comparison, so every predicate —
// including folded-true ones — still contributes its attribute index to
// the conjunction's width requirement. The compiled filter reproduces
// the interpreted semantics bit for bit; the equivalence suite and
// FuzzFilterCompile enforce that.
//
// Evaluation is columnar: one predicate over one 64-lane word of one
// column at a time (selvec kernels), AND-combined within a conjunction
// with short-circuiting on all-zero accumulators, OR-combined across
// the DNF with saturated words skipped entirely. Per-predicate and
// per-conjunction pass popcounts feed an adaptive re-ranking every
// rerankEvery batches: within a conjunction the predicate observed most
// selective runs first (fewest surviving lanes → fastest short-circuit),
// and across the DNF the conjunction passing the most lanes runs first
// (fastest saturation). Reordering never changes results — AND and OR
// are commutative — only how soon the short-circuits fire.

const (
	predEq = iota // lane passes iff col[lane] == c (xor neg)
	predLt        // lane passes iff col[lane] < c, unsigned (xor neg)
)

// rerankEvery is the number of EvalColumns calls between selectivity
// re-rankings. Counters halve at each re-rank so the ordering tracks
// drifting data rather than the whole run's history.
const rerankEvery = 64

type compiledPred struct {
	attr uint8
	kind uint8 // predEq or predLt
	neg  bool
	c    uint32

	// Selectivity counters: lanes the kernel scored and lanes that
	// passed, accumulated across batches and decayed at re-rank.
	lanes uint64
	pass  uint64
}

type compiledConj struct {
	preds []compiledPred
	// maxAttr is the largest attribute index any predicate of the
	// source conjunction references (including folded-true ones), or -1
	// for an empty conjunction. A record or batch narrower than
	// maxAttr+1 attributes fails the conjunction outright, matching the
	// interpreted out-of-range rule.
	maxAttr int

	lanes uint64
	pass  uint64
}

// CompiledFilter is a Filter lowered to columnar form. The zero value
// is not meaningful; build one with Filter.Compile. A CompiledFilter is
// not safe for concurrent use (it carries adaptive-ordering state).
type CompiledFilter struct {
	conjs []compiledConj
	// empty mirrors Filter.Empty: no DNF at all, matches everything.
	empty bool
	// always is set when some conjunction folded to constant true with
	// no width requirement, so every record matches regardless of arity.
	always bool
	evals  int
}

// Compile lowers the filter to columnar form.
func (f Filter) Compile() *CompiledFilter {
	cf := &CompiledFilter{empty: len(f.DNF) == 0}
	const maxU = int64(1)<<32 - 1
conjs:
	for _, conj := range f.DNF {
		cc := compiledConj{maxAttr: -1}
		for _, p := range conj {
			if int(p.Attr) > cc.maxAttr {
				cc.maxAttr = int(p.Attr)
			}
			kind, neg, c := uint8(predEq), false, uint32(0)
			switch p.Op {
			case Eq:
				if p.Val < 0 || p.Val > maxU {
					continue conjs // constant false
				}
				c = uint32(p.Val)
			case Ne:
				if p.Val < 0 || p.Val > maxU {
					continue // constant true: width gate only
				}
				neg, c = true, uint32(p.Val)
			case Lt:
				if p.Val <= 0 {
					continue conjs
				}
				if p.Val > maxU {
					continue
				}
				kind, c = predLt, uint32(p.Val)
			case Le:
				if p.Val < 0 {
					continue conjs
				}
				if p.Val >= maxU {
					continue
				}
				kind, c = predLt, uint32(p.Val+1)
			case Gt:
				if p.Val >= maxU {
					continue conjs
				}
				if p.Val < 0 {
					continue
				}
				kind, neg, c = predLt, true, uint32(p.Val+1)
			case Ge:
				if p.Val > maxU {
					continue conjs
				}
				if p.Val <= 0 {
					continue
				}
				kind, neg, c = predLt, true, uint32(p.Val)
			default:
				// Unknown operator: CmpOp.Eval returns false.
				continue conjs
			}
			cc.preds = append(cc.preds, compiledPred{attr: uint8(p.Attr), kind: kind, neg: neg, c: c})
		}
		if len(cc.preds) == 0 && cc.maxAttr < 0 {
			cf.always = true
		}
		cf.conjs = append(cf.conjs, cc)
	}
	return cf
}

// AlwaysTrue reports that every record matches regardless of its arity
// (an empty WHERE, or a conjunction folded to constant true).
func (cf *CompiledFilter) AlwaysTrue() bool { return cf.empty || cf.always }

// evalWord scores one predicate over lanes [lo,hi) of its column,
// returning the pass word; dead high bits may be set when neg is true,
// so callers mask with the word's valid-lane mask.
func (p *compiledPred) evalWord(cols [][]uint32, lo, hi int) uint64 {
	col := cols[p.attr][lo:hi]
	var m uint64
	if p.kind == predEq {
		m = selvec.EqWord(col, p.c)
	} else {
		m = selvec.LtWord(col, p.c)
	}
	if p.neg {
		m = ^m
	}
	return m
}

// EvalColumns evaluates the filter over the first n lanes of cols,
// writing the selection into out (which must hold selvec.Words(n)
// words; prior contents are overwritten, dead tail bits end up zero).
// Columns must each have at least n lanes; a conjunction referencing an
// attribute index >= len(cols) fails for the whole batch, matching the
// interpreted out-of-range rule.
func (cf *CompiledFilter) EvalColumns(cols [][]uint32, n int, out selvec.Bitmap) {
	if n == 0 {
		return
	}
	nw := selvec.Words(n)
	if cf.AlwaysTrue() {
		out.SetAll(n)
		return
	}
	out.Clear(n)
	if len(cf.conjs) == 0 {
		return
	}
	for ci := range cf.conjs {
		cc := &cf.conjs[ci]
		if cc.maxAttr >= len(cols) {
			continue
		}
		if len(cc.preds) == 0 {
			// Constant-true conjunction whose width gate passed:
			// every remaining lane matches.
			out.SetAll(n)
			return
		}
		for wi := 0; wi < nw; wi++ {
			fullw := ^uint64(0)
			if wi == nw-1 {
				fullw = selvec.TailMask(n)
			}
			need := fullw &^ out[wi]
			if need == 0 {
				continue // word saturated by an earlier conjunction
			}
			lo := wi * selvec.WordLanes
			hi := lo + selvec.WordLanes
			if hi > n {
				hi = n
			}
			width := uint64(hi - lo)
			acc := need
			for k := range cc.preds {
				p := &cc.preds[k]
				m := p.evalWord(cols, lo, hi) & fullw
				p.lanes += width
				p.pass += uint64(bits.OnesCount64(m))
				acc &= m
				if acc == 0 {
					break
				}
			}
			cc.lanes += uint64(bits.OnesCount64(need))
			cc.pass += uint64(bits.OnesCount64(acc))
			out[wi] |= acc
		}
	}
	cf.evals++
	if cf.evals >= rerankEvery {
		cf.rerank()
	}
}

// passRate returns observed pass probability, optimistically 1 when a
// predicate has not been scored yet (run it last until proven cheap).
func passRate(pass, lanes uint64) float64 {
	if lanes == 0 {
		return 1
	}
	return float64(pass) / float64(lanes)
}

// rerank reorders predicates within each conjunction by ascending
// observed pass rate (most selective first → earliest short-circuit)
// and conjunctions by descending pass rate (most passing first →
// earliest word saturation), then halves all counters so the ordering
// adapts to drift. Pure reordering of commutative AND/OR terms: results
// are unchanged.
func (cf *CompiledFilter) rerank() {
	cf.evals = 0
	for ci := range cf.conjs {
		cc := &cf.conjs[ci]
		sort.SliceStable(cc.preds, func(i, j int) bool {
			return passRate(cc.preds[i].pass, cc.preds[i].lanes) <
				passRate(cc.preds[j].pass, cc.preds[j].lanes)
		})
		for k := range cc.preds {
			cc.preds[k].lanes >>= 1
			cc.preds[k].pass >>= 1
		}
	}
	sort.SliceStable(cf.conjs, func(i, j int) bool {
		return passRate(cf.conjs[i].pass, cf.conjs[i].lanes) >
			passRate(cf.conjs[j].pass, cf.conjs[j].lanes)
	})
	for ci := range cf.conjs {
		cf.conjs[ci].lanes >>= 1
		cf.conjs[ci].pass >>= 1
	}
}

// predOrder exposes the current (attr, op-kind, neg, constant) order of
// each conjunction for the adaptive-ordering tests.
func (cf *CompiledFilter) predOrder() [][]compiledPred {
	out := make([][]compiledPred, len(cf.conjs))
	for i := range cf.conjs {
		out[i] = append([]compiledPred(nil), cf.conjs[i].preds...)
	}
	return out
}
