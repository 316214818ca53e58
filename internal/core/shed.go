package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/stream"
)

// Degradation is the honest accounting of one epoch's overload behaviour:
// how many records the engine was offered (after the WHERE filter), how
// many it processed exactly, how many it shed for lack of capacity, and
// how many arrived too late for their epoch. The invariant
//
//	Offered == Processed + Dropped + Late
//
// holds at every epoch boundary: every record is accounted for exactly
// once. Answers remain exact over the Processed records; the counters
// quantify what the exactness covers.
type Degradation struct {
	Epoch     uint32
	Offered   uint64
	Processed uint64
	Dropped   uint64 // shed by overload control before any hash-table work
	Late      uint64 // timestamp regressed into an already-closed epoch
}

// SheddingRate returns (Dropped+Late)/Offered, the fraction of the
// offered stream the epoch's answers do not cover.
func (d Degradation) SheddingRate() float64 {
	if d.Offered == 0 {
		return 0
	}
	return float64(d.Dropped+d.Late) / float64(d.Offered)
}

// add folds another epoch's counters into a cumulative total.
func (d *Degradation) add(o Degradation) {
	d.Offered += o.Offered
	d.Processed += o.Processed
	d.Dropped += o.Dropped
	d.Late += o.Late
}

// epochHistory is the closed epochs' ledgers in columns: per epoch, its
// number and one {Offered, Processed, Dropped, Late} per shard (n =
// max(Options.Shards, 1)), whose sum is its global ledger. The counters
// are kept in 32 bits until one does not fit, and in 64 from then on.
type epochHistory struct {
	n      int
	epochs []uint32
	leds   [][4]uint32 // n per row, while wide is nil
	wide   [][4]uint64
}

func (h *epochHistory) add(epoch uint32, shards []Degradation) {
	h.epochs = append(h.epochs, epoch)
	for _, d := range shards {
		if h.wide == nil && max(d.Offered, d.Processed, d.Dropped, d.Late) <= math.MaxUint32 {
			h.leds = append(h.leds, [4]uint32{uint32(d.Offered), uint32(d.Processed), uint32(d.Dropped), uint32(d.Late)})
			continue
		}
		if h.wide == nil {
			h.wide = make([][4]uint64, 0, len(h.leds)+1)
			for _, l := range h.leds {
				h.wide = append(h.wide, [4]uint64{uint64(l[0]), uint64(l[1]), uint64(l[2]), uint64(l[3])})
			}
			h.leds = nil
		}
		h.wide = append(h.wide, [4]uint64{d.Offered, d.Processed, d.Dropped, d.Late})
	}
}

// shard returns row i's ledger of shard s.
func (h *epochHistory) shard(i, s int) Degradation {
	if h.wide != nil {
		l := h.wide[i*h.n+s]
		return Degradation{h.epochs[i], l[0], l[1], l[2], l[3]}
	}
	l := h.leds[i*h.n+s]
	return Degradation{h.epochs[i], uint64(l[0]), uint64(l[1]), uint64(l[2]), uint64(l[3])}
}

// global returns row i's epoch ledger.
func (h *epochHistory) global(i int) Degradation {
	d := Degradation{Epoch: h.epochs[i]}
	for s := 0; s < h.n; s++ {
		d.add(h.shard(i, s))
	}
	return d
}

// restoreHistory rebuilds an n-shard history from a checkpoint's global
// ledgers and, when n > 1, its per-shard ones (n per epoch), which must
// split each global one exactly.
func restoreHistory(n int, global, shards []Degradation) (epochHistory, error) {
	h := epochHistory{n: n}
	if n == 1 {
		shards = global
	}
	if len(shards) != n*len(global) {
		return h, fmt.Errorf("%d per-shard ledgers for %d epochs of %d shards", len(shards), len(global), n)
	}
	for i, g := range global {
		row := shards[i*n : (i+1)*n]
		if h.add(g.Epoch, row); h.global(i) != g || slices.ContainsFunc(row, func(d Degradation) bool { return d.Epoch != g.Epoch }) {
			return h, fmt.Errorf("epoch %d: per-shard ledgers %+v do not split its ledger %+v", g.Epoch, row, g)
		}
	}
	return h, nil
}

// ShedPolicy decides which records to shed when the engine runs with a
// processing budget (Options.Budget). Admit is consulted for every
// offered record, in stream order; exhausted reports whether the current
// stream time unit's budget is already spent. rec.Attrs is valid only for
// the duration of the call — it aliases an engine-owned row buffer the
// next record overwrites — so a policy that
// keeps attributes must copy them (the built-in policies never read
// them). EpochEnd delivers the closed epoch's degradation so adaptive
// policies can steer. Policies are used from a single goroutine.
type ShedPolicy interface {
	Admit(rec stream.Record, exhausted bool) bool
	EpochEnd(d Degradation)
}

// ShedPolicyState is optionally implemented by shed policies whose
// admission decisions depend on mutable state. The checkpoint
// carries the state words across a crash, so a killed-and-restored run
// sheds exactly the records the uninterrupted run would have shed
// (byte-identical resume). Stateless policies (DropTail) need not
// implement it.
type ShedPolicyState interface {
	// ShedState returns the policy's mutable state as opaque words.
	ShedState() []uint64
	// RestoreShedState resets the policy to a state previously returned
	// by ShedState; it rejects words it cannot interpret.
	RestoreShedState(words []uint64) error
}

// DropTail is the default policy and what a NIC does at line rate: every
// record is admitted while budget remains, and everything after
// exhaustion is dropped. Drops concentrate at the tail of each time unit,
// biasing per-group counts toward early arrivals.
type DropTail struct{}

// Admit implements ShedPolicy.
func (DropTail) Admit(_ stream.Record, exhausted bool) bool { return !exhausted }

// EpochEnd implements ShedPolicy.
func (DropTail) EpochEnd(Degradation) {}

// UniformShed sheds a deterministic pseudo-random fraction of records
// spread uniformly across the epoch, instead of letting drop-tail
// truncate each time unit. The shedding rate is adapted at every epoch
// boundary toward the previous epoch's measured total shed rate (EWMA),
// so under sustained overload the policy converges to dropping the
// unavoidable fraction uniformly — keeping per-group aggregates an
// unbiased downscaling of the true ones — while still hard-dropping when
// the budget is exhausted despite sampling.
type UniformShed struct {
	rate   float64 // current proactive shed probability in [0, 1)
	thresh uint64  // shedThreshold(rate): a 53-bit draw below it sheds
	alpha  float64 // EWMA weight of the newest epoch's observation
	x      uint64  // splitmix64 RNG position
}

// shedThreshold turns a shed probability into the integer a 53-bit draw d
// is compared against: d/2^53 >= rate exactly when d >= ceil(rate·2^53),
// because d is an integer below 2^53 (exact as a float64) and scaling by a
// power of two is exact. Admit then costs no convert and no divide.
func shedThreshold(rate float64) uint64 {
	return uint64(math.Ceil(rate * (1 << 53)))
}

// NewUniformShed returns a uniform shedder with the given EWMA weight
// (0 < alpha <= 1; 0 defaults to 0.5) and deterministic seed.
func NewUniformShed(alpha float64, seed uint64) *UniformShed {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	return &UniformShed{alpha: alpha, x: seed ^ 0x5851f42d4c957f2d}
}

// next advances the splitmix64 stream one step.
func (u *UniformShed) next() uint64 {
	u.x += 0x9e3779b97f4a7c15
	z := u.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rate returns the current proactive shedding probability.
func (u *UniformShed) Rate() float64 { return u.rate }

// Admit implements ShedPolicy.
func (u *UniformShed) Admit(_ stream.Record, exhausted bool) bool {
	if exhausted {
		return false
	}
	if u.rate <= 0 {
		return true
	}
	return u.next()>>11 >= u.thresh
}

// ShedState implements ShedPolicyState: the EWMA rate and RNG position.
func (u *UniformShed) ShedState() []uint64 {
	return []uint64{math.Float64bits(u.rate), u.x}
}

// RestoreShedState implements ShedPolicyState.
func (u *UniformShed) RestoreShedState(words []uint64) error {
	if len(words) != 2 {
		return fmt.Errorf("core: UniformShed state has %d words, want 2", len(words))
	}
	rate := math.Float64frombits(words[0])
	if math.IsNaN(rate) || rate < 0 || rate > 1 {
		return fmt.Errorf("core: UniformShed rate %v out of range", rate)
	}
	u.rate, u.thresh = rate, shedThreshold(rate)
	u.x = words[1]
	return nil
}

// EpochEnd implements ShedPolicy: steer the proactive rate toward the
// epoch's measured shed rate.
func (u *UniformShed) EpochEnd(d Degradation) {
	if d.Offered == 0 {
		return
	}
	obs := float64(d.Dropped) / float64(d.Offered)
	u.rate = u.alpha*obs + (1-u.alpha)*u.rate
	if u.rate > 0.95 {
		u.rate = 0.95
	}
	u.thresh = shedThreshold(u.rate)
}
