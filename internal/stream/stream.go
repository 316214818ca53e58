// Package stream provides the tuple and stream substrate the two-level
// DSMS runs on: fixed-schema records with a timestamp, stream sources, and
// epoch bookkeeping.
//
// Records model IP packet headers the way the paper's evaluation does:
// every grouping attribute is a 4-byte value (source IP, destination IP,
// source port, destination port, ...), plus an arrival timestamp used to
// cut the stream into aggregation epochs.
package stream

import (
	"fmt"

	"repro/internal/attr"
)

// Record is one stream tuple. Attrs is indexed by attr.ID and has exactly
// Schema.NumAttrs entries; Time is the arrival timestamp in stream time
// units (seconds in all paper workloads).
type Record struct {
	Attrs []uint32
	Time  uint32
}

// Schema describes the stream relation R: how many grouping attributes a
// record carries and what they are called.
type Schema struct {
	NumAttrs int
	Names    []string // optional long names, e.g. "srcIP"; Names[i] for attr.ID(i)
}

// NewSchema builds a schema with n attributes named A..; long names are
// defaulted to the single-letter names.
func NewSchema(n int) (Schema, error) {
	if n <= 0 || n > attr.MaxAttrs {
		return Schema{}, fmt.Errorf("stream: schema must have 1..%d attributes, got %d", attr.MaxAttrs, n)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = attr.ID(i).Name()
	}
	return Schema{NumAttrs: n, Names: names}, nil
}

// MustSchema is NewSchema that panics on error.
func MustSchema(n int) Schema {
	s, err := NewSchema(n)
	if err != nil {
		panic(err)
	}
	return s
}

// Universe returns the relation containing all schema attributes.
func (s Schema) Universe() attr.Set {
	var u attr.Set
	for i := 0; i < s.NumAttrs; i++ {
		u = u.Add(attr.ID(i))
	}
	return u
}

// Validate reports an error if the record does not match the schema.
func (s Schema) Validate(r Record) error {
	if len(r.Attrs) != s.NumAttrs {
		return fmt.Errorf("stream: record has %d attributes, schema wants %d", len(r.Attrs), s.NumAttrs)
	}
	return nil
}

// Source yields a stream of records. Next returns false when the stream is
// exhausted; Err reports any error that terminated it early.
type Source interface {
	Next() (Record, bool)
	Err() error
}

// SliceSource replays an in-memory batch of records; the canonical source
// for experiments, which need repeatable multi-pass access to a dataset.
type SliceSource struct {
	recs []Record
	pos  int
}

// NewSliceSource wraps recs. The records are not copied; callers must not
// mutate them while the source is in use.
func NewSliceSource(recs []Record) *SliceSource {
	return &SliceSource{recs: recs}
}

// Next implements Source.
func (s *SliceSource) Next() (Record, bool) {
	if s.pos >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// Err implements Source; a slice source never fails.
func (s *SliceSource) Err() error { return nil }

// Reset rewinds the source to the beginning for another pass.
func (s *SliceSource) Reset() { s.pos = 0 }

// Len returns the total number of records in the source.
func (s *SliceSource) Len() int { return len(s.recs) }

// Epoch identifies an aggregation window: epoch e covers stream times
// [e*Length, (e+1)*Length).
type Epoch struct {
	Index  uint32
	Length uint32 // in stream time units; 0 means a single unbounded epoch
}

// Of returns the epoch index a timestamp falls into.
func (e Epoch) Of(t uint32) uint32 {
	if e.Length == 0 {
		return 0
	}
	return t / e.Length
}

// Clock tracks epoch boundaries while consuming a stream in arrival order.
// It is the "time/60 as tb" machinery of the paper's queries.
//
// The clock never moves backwards: a timestamp that regresses into an
// already-closed epoch (possible on unordered streams when no
// OrderedSource is configured) is clamped to the current epoch and
// counted as a regression (carried by Snapshot), instead of rolling the clock back and
// corrupting epoch assignment. Regressions within the current epoch are
// harmless and not counted.
type Clock struct {
	Length    uint32
	started   bool
	cur       uint32
	regressed uint64
}

// NewClock returns a clock cutting the stream into epochs of the given
// length; length 0 means the whole stream is one epoch.
func NewClock(length uint32) *Clock { return &Clock{Length: length} }

// Advance feeds the clock the next record timestamp. It returns the
// epoch index the record belongs to and whether this record starts a new
// epoch (i.e. an end-of-epoch flush of all previous state is due first).
// A timestamp regressing into an earlier epoch reports the current epoch
// with rolled=false; use Observe to detect such late records explicitly.
func (c *Clock) Advance(t uint32) (epoch uint32, rolled bool) {
	epoch, rolled, _ = c.Observe(t)
	return epoch, rolled
}

// Observe is Advance with an explicit lateness verdict: late is true when
// the timestamp falls into an epoch earlier than the current one, in
// which case the record cannot be assigned correctly anymore (its epoch
// has been flushed) and the returned epoch is the clamped current one.
func (c *Clock) Observe(t uint32) (epoch uint32, rolled, late bool) {
	e := Epoch{Length: c.Length}.Of(t)
	if !c.started {
		c.started = true
		c.cur = e
		return e, false, false
	}
	switch {
	case e > c.cur:
		c.cur = e
		return e, true, false
	case e < c.cur:
		c.regressed++
		return c.cur, false, true
	}
	return e, false, false
}

// Snapshot captures the clock state for checkpointing: whether it has
// started, the current epoch, and how many timestamps it has seen regress
// into an earlier epoch.
func (c *Clock) Snapshot() (started bool, cur uint32, regressed uint64) {
	return c.started, c.cur, c.regressed
}

// RestoreSnapshot resets the clock to a snapshot taken by Snapshot.
func (c *Clock) RestoreSnapshot(started bool, cur uint32, regressed uint64) {
	c.started, c.cur, c.regressed = started, cur, regressed
}

// Current returns the epoch the clock is in; valid after the first Advance.
func (c *Clock) Current() uint32 { return c.cur }

// SkipSource discards the first n records of a source before yielding the
// rest — the resume path for replaying a trace from a checkpoint's stream
// position. The skipped prefix is consumed lazily by the first Next or
// NextColumns call; NextColumns discards it in column batches, so a
// resumed columnar reader never falls back to record-by-record decode.
type SkipSource struct {
	src Source
	n   uint64
}

// NewSkipSource wraps src, discarding its first n records.
func NewSkipSource(src Source, n uint64) *SkipSource {
	return &SkipSource{src: src, n: n}
}

// Next implements Source.
func (s *SkipSource) Next() (Record, bool) {
	for ; s.n > 0; s.n-- {
		if _, ok := s.src.Next(); !ok {
			return Record{}, false
		}
	}
	return s.src.Next()
}

// NextColumns implements ColumnSource, reading the skipped prefix into
// dst and dropping it before the first batch it returns.
func (s *SkipSource) NextColumns(dst *ColumnBatch, limit int) int {
	for s.n > 0 {
		k := ReadColumns(s.src, dst, int(min(s.n, ColumnBatchLen)))
		if k == 0 {
			return 0
		}
		s.n -= uint64(k)
	}
	return ReadColumns(s.src, dst, limit)
}

// Err implements Source.
func (s *SkipSource) Err() error { return s.src.Err() }

// Collect drains a source into a slice. It is a convenience for tests and
// experiment setup.
func Collect(src Source) ([]Record, error) {
	var out []Record
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out, src.Err()
}
