package stream

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/attr"
)

// columnTestRecs builds a random fixed-width trace for the equivalence
// tests.
func columnTestRecs(rng *rand.Rand, n, width int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		attrs := make([]uint32, width)
		for a := range attrs {
			attrs[a] = rng.Uint32() % 5000
		}
		recs[i] = Record{Attrs: attrs, Time: uint32(i / 3)}
	}
	return recs
}

// checkColumnsMatch compares one ColumnBatch against the records read from
// the same stream position.
func checkColumnsMatch(t *testing.T, cb *ColumnBatch, recs []Record) {
	t.Helper()
	if cb.Len() != len(recs) {
		t.Fatalf("columnar batch has %d records, record-major %d", cb.Len(), len(recs))
	}
	for i, rec := range recs {
		if cb.Width() != len(rec.Attrs) {
			t.Fatalf("record %d: columnar width %d, record-major arity %d", i, cb.Width(), len(rec.Attrs))
		}
		for a, v := range rec.Attrs {
			if cb.Cols[a][i] != v {
				t.Fatalf("record %d attr %d: columnar %d, record-major %d", i, a, cb.Cols[a][i], v)
			}
		}
		if cb.Time[i] != rec.Time {
			t.Fatalf("record %d: columnar time %d, record-major %d", i, cb.Time[i], rec.Time)
		}
	}
}

// drainEquivalence drains recSrc record by record (Collect, i.e. Next) as
// the reference and colSrc through ReadColumns with the given batch limit,
// comparing every batch against its stretch of the reference, and returns
// the largest batch ReadColumns returned. The two sources must yield the
// same stream.
func drainEquivalence(t *testing.T, colSrc, recSrc Source, limit int) int {
	t.Helper()
	want, wantErr := Collect(recSrc)
	var cb ColumnBatch
	pos, largest := 0, 0
	for {
		n := ReadColumns(colSrc, &cb, limit)
		if n == 0 {
			break
		}
		if n > limit || pos+n > len(want) {
			t.Fatalf("limit %d: ReadColumns returned %d records at position %d of %d", limit, n, pos, len(want))
		}
		checkColumnsMatch(t, &cb, want[pos:pos+n])
		pos += n
		largest = max(largest, n)
	}
	if pos != len(want) {
		t.Fatalf("limit %d: ReadColumns yielded %d records, Next %d", limit, pos, len(want))
	}
	if ce := colSrc.Err(); (ce == nil) != (wantErr == nil) {
		t.Fatalf("limit %d: error mismatch: columnar %v, record-major %v", limit, ce, wantErr)
	}
	return largest
}

// encodeTrace writes recs as a binary trace of the given width.
func encodeTrace(t testing.TB, width int, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, MustSchema(width), recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openTrace opens a TraceSource over an encoded trace.
func openTrace(t testing.TB, raw []byte) *TraceSource {
	t.Helper()
	src, err := NewTraceSource(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// traceBlock is the most records one TraceSource.NextColumns call
// returns at the given limit and width.
func traceBlock(limit, width int) int {
	return min(limit, traceBufSize/(4*(width+1)))
}

// TestReadColumnsMatchesNextSlice: the SliceSource columnar fast path
// yields exactly the transposed record stream, across batch limits that
// divide the stream evenly and ones that leave a short tail.
func TestReadColumnsMatchesNextSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	recs := columnTestRecs(rng, 3000, 4)
	for _, limit := range []int{1, 7, 256, ColumnBatchLen, 5000} {
		drainEquivalence(t, NewSliceSource(recs), NewSliceSource(recs), limit)
	}
}

// TestReadColumnsMatchesNextTrace: the TraceSource columnar decode (a
// peeked block transposed in one pass) matches the record-by-record
// decode byte for byte at every schema width, at limits of one record, an
// odd batch, a full batch and one above the read buffer's capacity, where
// every batch but the tail must be exactly as long as the buffer holds
// (606 records at width 26).
func TestReadColumnsMatchesNextTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const records = 2500
	for width := 1; width <= attr.MaxAttrs; width++ {
		raw := encodeTrace(t, width, columnTestRecs(rng, records, width))
		for _, limit := range []int{1, 13, ColumnBatchLen, 4096} {
			largest := drainEquivalence(t, openTrace(t, raw), openTrace(t, raw), limit)
			if want := min(traceBlock(limit, width), records); largest != want {
				t.Fatalf("width %d limit %d: largest batch %d, want %d", width, limit, largest, want)
			}
		}
	}
}

// TestTraceTruncationSweep cuts a three-batch trace at every byte of its
// last three records. Both decoders must end in ErrBadTrace. Next yields
// every whole record before the cut; the columnar drain yields a prefix
// of those that ends on a batch boundary, because the block the cut falls
// in is dropped whole.
func TestTraceTruncationSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, width := range []int{1, 4, 9, attr.MaxAttrs} {
		rb := 4 * (width + 1)
		block := traceBlock(ColumnBatchLen, width)
		recs := columnTestRecs(rng, 3*block, width)
		raw := encodeTrace(t, width, recs)
		for cut := len(raw) - 3*rb; cut < len(raw); cut++ {
			want, wantErr := Collect(openTrace(t, raw[:cut]))
			if !errors.Is(wantErr, ErrBadTrace) {
				t.Fatalf("width %d cut %d: Next ended with %v, want ErrBadTrace", width, cut, wantErr)
			}
			if whole := len(recs) - (len(raw)-cut+rb-1)/rb; len(want) != whole {
				t.Fatalf("width %d cut %d: Next yielded %d records, want %d", width, cut, len(want), whole)
			}
			src := openTrace(t, raw[:cut])
			var cb ColumnBatch
			pos := 0
			for {
				n := src.NextColumns(&cb, ColumnBatchLen)
				if n == 0 {
					break
				}
				if pos+n > len(want) {
					t.Fatalf("width %d cut %d: columnar drain passed Next's %d records", width, cut, len(want))
				}
				checkColumnsMatch(t, &cb, want[pos:pos+n])
				pos += n
			}
			if pos != 2*block {
				t.Fatalf("width %d cut %d: columnar drain yielded %d records, want the first two batches (%d)", width, cut, pos, 2*block)
			}
			if !errors.Is(src.Err(), ErrBadTrace) {
				t.Fatalf("width %d cut %d: columnar drain ended with %v, want ErrBadTrace", width, cut, src.Err())
			}
		}
	}
}

// TestTraceNextColumnsAllocs: once a recycled batch holds a full block,
// NextColumns decodes into it without allocating.
func TestTraceNextColumnsAllocs(t *testing.T) {
	const runs = 50
	rng := rand.New(rand.NewSource(35))
	for _, width := range []int{4, 8} {
		src := openTrace(t, encodeTrace(t, width, columnTestRecs(rng, (runs+2)*ColumnBatchLen, width)))
		var cb ColumnBatch
		src.NextColumns(&cb, ColumnBatchLen)
		allocs := testing.AllocsPerRun(runs, func() {
			if n := src.NextColumns(&cb, ColumnBatchLen); n != ColumnBatchLen {
				t.Fatalf("width %d: NextColumns returned %d records", width, n)
			}
		})
		if allocs != 0 {
			t.Errorf("width %d: %.1f allocations per NextColumns call, want 0", width, allocs)
		}
	}
}

// TestSkipSourceColumns: a SkipSource over a trace yields, through its
// NextColumns and through Next, exactly the records after the skip, for
// skips inside, on and past batch boundaries and past the end.
func TestSkipSourceColumns(t *testing.T) {
	var _ ColumnSource = (*SkipSource)(nil)
	rng := rand.New(rand.NewSource(36))
	recs := columnTestRecs(rng, 2500, 4)
	raw := encodeTrace(t, 4, recs)
	for _, skip := range []int{0, 1, 1023, 1024, 1025, len(recs), len(recs) + 5} {
		rest := NewSliceSource(recs[min(skip, len(recs)):])
		for _, limit := range []int{1, 13, ColumnBatchLen} {
			drainEquivalence(t, NewSkipSource(openTrace(t, raw), uint64(skip)), rest, limit)
			rest.Reset()
			drainEquivalence(t, &plainSource{src: NewSkipSource(openTrace(t, raw), uint64(skip))}, rest, limit)
			rest.Reset()
		}
	}
}

// plainSource hides a Source's NextColumns, forcing ReadColumns
// onto its scalar Next-loop transpose fallback.
type plainSource struct{ src Source }

func (p *plainSource) Next() (Record, bool) { return p.src.Next() }
func (p *plainSource) Err() error           { return p.src.Err() }

// TestReadColumnsFallback: a source without NextColumns still fills the
// batch correctly via the Next fallback.
func TestReadColumnsFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	recs := columnTestRecs(rng, 1700, 5)
	for _, limit := range []int{1, 64, ColumnBatchLen} {
		drainEquivalence(t, &plainSource{src: NewSliceSource(recs)}, NewSliceSource(recs), limit)
	}
}

// TestColumnBatchRowRoundTrip: Row gathers exactly what Append
// scattered, and Reset retains backing across width changes.
func TestColumnBatchRowRoundTrip(t *testing.T) {
	var cb ColumnBatch
	cb.Reset(3)
	cb.Append([]uint32{1, 2, 3}, 9)
	cb.Append([]uint32{4, 5, 6}, 10)
	row := cb.Row(1, nil)
	if cb.Time[1] != 10 || len(row) != 3 || row[0] != 4 || row[2] != 6 {
		t.Fatalf("Row(1) = %v (time %d)", row, cb.Time[1])
	}
	// Narrow, then re-widen: the hidden column's storage must come back.
	cb.Reset(1)
	cb.Append([]uint32{7}, 11)
	cb.Reset(3)
	if cb.Width() != 3 || cb.Len() != 0 {
		t.Fatalf("after re-widen: width %d len %d", cb.Width(), cb.Len())
	}
	// A recycled batch must not leak a stale selection vector.
	cb.Sel = append(cb.Sel[:0], ^uint64(0))
	cb.Reset(3)
	if len(cb.Sel) != 0 {
		t.Fatalf("Reset kept stale selection vector of %d words", len(cb.Sel))
	}
}
