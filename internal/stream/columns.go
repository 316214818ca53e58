package stream

// Column-major record batches: the native in-flight representation of the
// columnar execution pipeline. A ColumnBatch holds one slice per record
// attribute plus a timestamp column, so every downstream consumer — the
// shard router's hash/scatter passes, the LFTA's batch probe setup, the
// delta-run construction — reads each attribute as a stride-1 stream
// instead of striding across record structs. Sources that can decode
// straight into columns implement ColumnSource; ReadColumns transposes
// through Next for the rest, so the representation is universal even when
// the fast path is not.

// ColumnBatchLen is the standard capacity (in records) of a recycled
// ColumnBatch: large enough to amortize per-batch dispatch, small enough
// that a full batch of a few attribute columns stays L1/L2-resident
// while it is being partitioned.
const ColumnBatchLen = 1024

// ColumnBatch is a column-major run of records: Cols[a][i] is attribute a
// of record i, Time[i] its timestamp. All attribute columns have equal
// length; Time is either the same length or empty (runs whose epoch is
// carried out of band, e.g. sealed shard runs, drop the timestamp
// column). The zero value is ready for Reset.
type ColumnBatch struct {
	Cols [][]uint32
	Time []uint32

	// Sel is the batch's selection vector when a vectorized WHERE has
	// run over it (selvec.Bitmap layout: bit j of word w covers record
	// w*64+j, dead tail bits zero). Empty means no selection has been
	// computed — every record is live. Producers that fill it pass the
	// batch down by selection instead of compacting survivors.
	Sel []uint64
}

// Len returns the number of records in the batch.
func (b *ColumnBatch) Len() int {
	if len(b.Cols) == 0 {
		return len(b.Time)
	}
	return len(b.Cols[0])
}

// Width returns the number of attribute columns.
func (b *ColumnBatch) Width() int { return len(b.Cols) }

// Reset empties the batch and sets its width, retaining all column
// storage (including that of columns hidden by a narrower width) so a
// recycled batch refills without allocating.
func (b *ColumnBatch) Reset(width int) {
	if cap(b.Cols) >= width {
		b.Cols = b.Cols[:width]
	} else {
		b.Cols = append(b.Cols[:cap(b.Cols)], make([][]uint32, width-cap(b.Cols))...)
	}
	for a := range b.Cols {
		b.Cols[a] = b.Cols[a][:0]
	}
	b.Time = b.Time[:0]
	b.Sel = b.Sel[:0]
}

// Append adds one record to the batch. attrs must have exactly Width()
// values.
func (b *ColumnBatch) Append(attrs []uint32, t uint32) {
	for a := range b.Cols {
		b.Cols[a] = append(b.Cols[a], attrs[a])
	}
	b.Time = append(b.Time, t)
}

// Extend grows every attribute column by n records (contents
// unspecified) and returns the previous length — the base index a
// scatter pass writes from. The timestamp column is not extended.
func (b *ColumnBatch) Extend(n int) int {
	base := b.Len()
	need := base + n
	for a := range b.Cols {
		col := b.Cols[a]
		if cap(col) < need {
			grown := make([]uint32, len(col), max(need, 2*cap(col)))
			copy(grown, col)
			col = grown
		}
		b.Cols[a] = col[:need]
	}
	return base
}

// Row gathers record i's attributes into dst (reused when large enough)
// and returns it — the record-major compatibility view.
func (b *ColumnBatch) Row(i int, dst []uint32) []uint32 {
	dst = dst[:0]
	for a := range b.Cols {
		dst = append(dst, b.Cols[a][i])
	}
	return dst
}

// ColumnSource is an optional Source refinement for columnar consumers: a
// source that can decode records directly into a ColumnBatch (an
// in-memory slice, a binary trace block) should implement it, and
// ReadColumns will use it instead of transposing through Next.
type ColumnSource interface {
	Source
	// NextColumns resets dst and fills it with up to limit records,
	// returning how many were written. 0 means the stream is exhausted
	// (check Err); short non-zero returns are allowed.
	NextColumns(dst *ColumnBatch, limit int) int
}

// ReadColumns fills dst with up to limit records from src — via one
// NextColumns call when src implements ColumnSource, otherwise by looping
// Next and transposing — and returns the number of records written.
// 0 means the stream is exhausted. dst is reset first either way.
func ReadColumns(src Source, dst *ColumnBatch, limit int) int {
	if cs, ok := src.(ColumnSource); ok {
		return cs.NextColumns(dst, limit)
	}
	n := 0
	for n < limit {
		r, ok := src.Next()
		if !ok {
			break
		}
		if n == 0 {
			dst.Reset(len(r.Attrs))
		}
		dst.Append(r.Attrs, r.Time)
		n++
	}
	if n == 0 {
		dst.Reset(0)
	}
	return n
}

// NextColumns implements ColumnSource with a per-attribute transpose of
// the backing records: each destination column is filled in one stride-1
// write pass.
func (s *SliceSource) NextColumns(dst *ColumnBatch, limit int) int {
	n := len(s.recs) - s.pos
	if n > limit {
		n = limit
	}
	if n <= 0 {
		dst.Reset(0)
		return 0
	}
	recs := s.recs[s.pos : s.pos+n]
	dst.Reset(len(recs[0].Attrs))
	for a := range dst.Cols {
		col := dst.Cols[a]
		for i := range recs {
			col = append(col, recs[i].Attrs[a])
		}
		dst.Cols[a] = col
	}
	times := dst.Time
	for i := range recs {
		times = append(times, recs[i].Time)
	}
	dst.Time = times
	s.pos += n
	return n
}
