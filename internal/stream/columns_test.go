package stream

import (
	"bytes"
	"math/rand"
	"testing"
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
// comparing every batch against its stretch of the reference. The two
// sources must yield the same stream.
func drainEquivalence(t *testing.T, colSrc, recSrc Source, limit int) {
	t.Helper()
	want, wantErr := Collect(recSrc)
	var cb ColumnBatch
	pos := 0
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
	}
	if pos != len(want) {
		t.Fatalf("limit %d: ReadColumns yielded %d records, Next %d", limit, pos, len(want))
	}
	if ce := colSrc.Err(); (ce == nil) != (wantErr == nil) {
		t.Fatalf("limit %d: error mismatch: columnar %v, record-major %v", limit, ce, wantErr)
	}
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

// TestReadColumnsMatchesNextTrace: the TraceSource columnar decode (block
// read + per-attribute stride decode) matches the record-by-record decode
// byte for byte.
func TestReadColumnsMatchesNextTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, width := range []int{1, 3, 8} {
		recs := columnTestRecs(rng, 2500, width)
		var buf bytes.Buffer
		if err := WriteTrace(&buf, MustSchema(width), recs); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		for _, limit := range []int{1, 13, ColumnBatchLen} {
			colSrc, err := NewTraceSource(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			recSrc, err := NewTraceSource(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			drainEquivalence(t, colSrc, recSrc, limit)
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
