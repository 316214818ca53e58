// Sketch aggregates: the mergeable-ADT layer the HFTA composes over
// pane partials. Each windowed query carries a list of Agg specs; every
// (relation, group, pane) holds one Partial — a bundle of per-spec
// sketches — that serializes to a self-describing blob for the
// LFTA→HFTA transfer and the checkpoint. Partials form a commutative
// monoid under Merge (exactly for HLL, to within quantile tolerance for
// t-digests), which is what makes pane composition order-insensitive.
package sketch

import "fmt"

// AggKind identifies a sketch aggregate function.
type AggKind uint8

const (
	// Distinct is count_distinct(X): an HLL over the attribute value.
	Distinct AggKind = 1
	// Quantile is percentile(X, p) / median(X): a t-digest over the
	// attribute value, queried at Q.
	Quantile AggKind = 2
)

// Agg specifies one sketch aggregate over a record attribute.
type Agg struct {
	Kind  AggKind
	Input int     // attribute id (index into the full-width tuple)
	Q     float64 // quantile in (0,1); meaningful for Quantile only
}

// Partial is the per-group mergeable state for a list of sketch
// aggregates: parallel to the spec list, one HLL or t-digest per entry.
type Partial struct {
	aggs []Agg
	hll  []*HLL     // nil entries for non-Distinct specs
	dig  []*TDigest // nil entries for non-Quantile specs
}

// NewPartial allocates empty sketches for each spec. precision 0 selects
// DefaultPrecision, compression 0 selects DefaultCompression.
func NewPartial(aggs []Agg, precision uint8, compression float64) (*Partial, error) {
	if precision == 0 {
		precision = DefaultPrecision
	}
	p := &Partial{aggs: aggs, hll: make([]*HLL, len(aggs)), dig: make([]*TDigest, len(aggs))}
	for i, a := range aggs {
		switch a.Kind {
		case Distinct:
			h, err := New(precision)
			if err != nil {
				return nil, err
			}
			p.hll[i] = h
		case Quantile:
			d, err := NewTDigest(compression)
			if err != nil {
				return nil, err
			}
			p.dig[i] = d
		default:
			return nil, fmt.Errorf("sketch: unknown agg kind %d", a.Kind)
		}
	}
	return p, nil
}

// Observe feeds one full-width record tuple into every sketch. An Input
// outside the tuple observes value 0, matching the projection semantics
// of absent attributes elsewhere in the engine.
func (p *Partial) Observe(attrs []uint32) {
	for i, a := range p.aggs {
		if a.Kind == Distinct {
			p.hll[i].Add(HashValue(a.Value(attrs)))
		}
	}
	p.ObserveDigests(attrs)
}

// ObserveDigests is Observe for the Quantile entries alone.
func (p *Partial) ObserveDigests(attrs []uint32) {
	for i, a := range p.aggs {
		if a.Kind == Quantile {
			p.dig[i].Add(float64(a.Value(attrs)))
		}
	}
}

// AddHash raises the Distinct entry i's registers for one HashValue. An
// HLL is a register max, so feeding a group each distinct value once
// leaves it as Observe over every record would.
func (p *Partial) AddHash(i int, hash uint64) { p.hll[i].Add(hash) }

// Value is the attribute value the aggregate observes in a record tuple:
// 0 for an Input outside it.
func (a Agg) Value(attrs []uint32) uint32 {
	if a.Input >= 0 && a.Input < len(attrs) {
		return attrs[a.Input]
	}
	return 0
}

// HashValue hashes a single attribute value, as a Distinct entry adds it,
// with the same construction AddKey uses for keys, without the slice
// indirection.
func HashValue(v uint32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	x := uint64(offset64)
	x ^= uint64(v)
	x *= prime64
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Merge folds another partial built from the same spec list into p.
func (p *Partial) Merge(other *Partial) error {
	if other == nil || len(other.aggs) != len(p.aggs) {
		return fmt.Errorf("sketch: partial spec mismatch")
	}
	for i, a := range p.aggs {
		if other.aggs[i] != a {
			return fmt.Errorf("sketch: partial spec mismatch at %d", i)
		}
		switch a.Kind {
		case Distinct:
			if err := p.hll[i].Merge(other.hll[i]); err != nil {
				return err
			}
		case Quantile:
			if err := p.dig[i].Merge(other.dig[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Estimates evaluates every sketch: the distinct estimate for Distinct
// entries, the Q-th quantile for Quantile entries (NaN when empty).
func (p *Partial) Estimates(dst []float64) []float64 {
	dst = dst[:0]
	for i, a := range p.aggs {
		switch a.Kind {
		case Distinct:
			dst = append(dst, p.hll[i].Estimate())
		case Quantile:
			dst = append(dst, p.dig[i].Quantile(a.Q))
		}
	}
	return dst
}

// Reset empties every sketch, keeping its storage. An HLL's store changes
// neither its estimates nor its blob, so a reset partial fed some values
// serializes as a fresh one fed the same.
func (p *Partial) Reset() {
	for i := range p.aggs {
		if p.hll[i] != nil {
			p.hll[i].Reset()
		} else {
			p.dig[i].Reset()
		}
	}
}

// Clone returns an independent copy.
func (p *Partial) Clone() *Partial {
	c := &Partial{aggs: p.aggs, hll: make([]*HLL, len(p.aggs)), dig: make([]*TDigest, len(p.aggs))}
	for i := range p.aggs {
		if p.hll[i] != nil {
			c.hll[i] = p.hll[i].Clone()
		}
		if p.dig[i] != nil {
			c.dig[i] = p.dig[i].Clone()
		}
	}
	return c
}

// AppendBinary serializes the partial: a count byte, then per entry a
// kind byte followed by the sketch's own encoding. The layout is
// self-describing so DecodePartial can cross-check the blob against the
// spec list it expects.
func (p *Partial) AppendBinary(dst []byte) []byte {
	dst = append(dst, uint8(len(p.aggs)))
	for i, a := range p.aggs {
		dst = append(dst, uint8(a.Kind))
		switch a.Kind {
		case Distinct:
			dst = p.hll[i].AppendBinary(dst)
		case Quantile:
			dst = p.dig[i].AppendBinary(dst)
		}
	}
	return dst
}

// DecodePartial parses one partial from the front of data, validating it
// against the expected spec list (and precision/compression), and
// returns the remaining bytes.
func DecodePartial(aggs []Agg, precision uint8, compression float64, data []byte) (*Partial, []byte, error) {
	p := &Partial{aggs: aggs, hll: make([]*HLL, len(aggs)), dig: make([]*TDigest, len(aggs))}
	rest, err := p.DecodeFrom(precision, compression, data)
	if err != nil {
		return nil, nil, err
	}
	return p, rest, nil
}

// DecodeFrom is DecodePartial into p, a partial over the same spec list
// whose state it replaces: an HLL p already holds at the blob's precision
// takes the blob's registers, in either wire form, into the store it has,
// so a caller that decodes blob after blob through one partial allocates
// for the t-digests only. After
// an error p's state is unspecified (and may be decoded over again).
func (p *Partial) DecodeFrom(precision uint8, compression float64, data []byte) ([]byte, error) {
	aggs := p.aggs
	if precision == 0 {
		precision = DefaultPrecision
	}
	if compression == 0 {
		compression = DefaultCompression
	}
	if len(data) < 1 {
		return nil, fmt.Errorf("sketch: partial blob truncated")
	}
	if int(data[0]) != len(aggs) {
		return nil, fmt.Errorf("sketch: partial blob has %d aggs, want %d", data[0], len(aggs))
	}
	data = data[1:]
	for i, a := range aggs {
		if len(data) < 1 {
			return nil, fmt.Errorf("sketch: partial blob truncated")
		}
		if AggKind(data[0]) != a.Kind {
			return nil, fmt.Errorf("sketch: partial blob kind %d at %d, want %d", data[0], i, a.Kind)
		}
		data = data[1:]
		var err error
		switch a.Kind {
		case Distinct:
			h := p.hll[i]
			if h == nil {
				h = new(HLL)
				p.hll[i] = h
			}
			if data, err = h.decode(data); err != nil {
				return nil, err
			}
			if h.p != precision {
				return nil, fmt.Errorf("sketch: partial blob precision %d, want %d", h.p, precision)
			}
		case Quantile:
			var d *TDigest
			if d, data, err = DecodeTDigest(data); err != nil {
				return nil, err
			}
			if d.Compression() != compression {
				return nil, fmt.Errorf("sketch: partial blob compression %v, want %v", d.Compression(), compression)
			}
			p.dig[i] = d
		default:
			return nil, fmt.Errorf("sketch: unknown agg kind %d", a.Kind)
		}
	}
	return data, nil
}
