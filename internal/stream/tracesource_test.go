package stream

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTraceSourceRoundTrip(t *testing.T) {
	schema := MustSchema(3)
	recs := []Record{
		mkRec(0, 1, 2, 3),
		mkRec(5, 4, 5, 6),
		mkRec(9, 7, 8, 9),
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, schema, recs); err != nil {
		t.Fatal(err)
	}
	src, err := NewTraceSource(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if src.Schema().NumAttrs != 3 {
		t.Errorf("schema attrs = %d", src.Schema().NumAttrs)
	}
	if src.Remaining() != 3 {
		t.Errorf("Remaining = %d", src.Remaining())
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records", len(got))
	}
	for i := range recs {
		if got[i].Time != recs[i].Time || got[i].Attrs[1] != recs[i].Attrs[1] {
			t.Errorf("record %d mismatch: %+v", i, got[i])
		}
	}
	// Exhausted source keeps returning false without error.
	if _, ok := src.Next(); ok {
		t.Error("exhausted source returned a record")
	}
	if src.Err() != nil {
		t.Errorf("Err = %v", src.Err())
	}
}

func TestTraceSourceRecordsAreIndependent(t *testing.T) {
	// Each record must own its attribute slice (no buffer aliasing).
	schema := MustSchema(2)
	recs := []Record{mkRec(0, 1, 2), mkRec(1, 3, 4)}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, schema, recs); err != nil {
		t.Fatal(err)
	}
	src, err := NewTraceSource(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := src.Next()
	r2, _ := src.Next()
	if r1.Attrs[0] != 1 || r2.Attrs[0] != 3 {
		t.Errorf("records alias each other: %v %v", r1.Attrs, r2.Attrs)
	}
}

func TestTraceSourceErrors(t *testing.T) {
	if _, err := NewTraceSource(strings.NewReader("BOGUS")); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated body: header promises 2 records, body holds 1.
	schema := MustSchema(1)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, schema, []Record{mkRec(0, 1), mkRec(1, 2)}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	src, err := NewTraceSource(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	if src.Err() == nil {
		t.Error("truncation not reported")
	}
	if n != 1 {
		t.Errorf("read %d records before truncation; want 1", n)
	}
}

func TestOpenTraceSource(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.magt")
	schema := MustSchema(2)
	recs := []Record{mkRec(0, 1, 2), mkRec(1, 3, 4)}
	if err := WriteTraceFile(path, schema, recs); err != nil {
		t.Fatal(err)
	}
	src, err := OpenTraceSource(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records", len(got))
	}
	if err := src.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := OpenTraceSource(filepath.Join(dir, "missing.magt")); err == nil {
		t.Error("missing file accepted")
	}
	// A non-trace file fails at open and must not leak the handle (no
	// direct way to assert the leak; this exercises the cleanup path).
	bad := filepath.Join(dir, "bad.magt")
	if err := os.WriteFile(bad, []byte("not a trace at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTraceSource(bad); err == nil {
		t.Error("non-trace file accepted")
	}
}

// TestTraceSourceZeroLimitKeepsFile: a NextColumns call with limit 0
// returns nothing and leaves an opened trace file open, so the stream
// reads on to its end.
func TestTraceSourceZeroLimitKeepsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.magt")
	recs := seqRecords(20000, 4) // 160 KB: more than the read buffer holds
	if err := WriteTraceFile(path, MustSchema(1), recs); err != nil {
		t.Fatal(err)
	}
	src, err := OpenTraceSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var cb ColumnBatch
	total := src.NextColumns(&cb, ColumnBatchLen)
	if n := src.NextColumns(&cb, 0); n != 0 {
		t.Fatalf("limit 0 returned %d records", n)
	}
	for {
		n := src.NextColumns(&cb, ColumnBatchLen)
		if n == 0 {
			break
		}
		total += n
	}
	if total != len(recs) || src.Err() != nil {
		t.Fatalf("read %d of %d records after a limit-0 call, err %v", total, len(recs), src.Err())
	}
}
