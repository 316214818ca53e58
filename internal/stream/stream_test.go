package stream

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/attr"
)

func mkRec(t uint32, vals ...uint32) Record {
	return Record{Attrs: vals, Time: t}
}

func TestNewSchema(t *testing.T) {
	if _, err := NewSchema(0); err == nil {
		t.Error("NewSchema(0) should fail")
	}
	if _, err := NewSchema(27); err == nil {
		t.Error("NewSchema(27) should fail")
	}
	s, err := NewSchema(4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Universe() != attr.MustParseSet("ABCD") {
		t.Errorf("Universe = %v", s.Universe())
	}
	if err := s.Validate(mkRec(0, 1, 2, 3)); err == nil {
		t.Error("Validate should reject 3-attr record for 4-attr schema")
	}
	if err := s.Validate(mkRec(0, 1, 2, 3, 4)); err != nil {
		t.Errorf("Validate rejected valid record: %v", err)
	}
}

func TestSliceSource(t *testing.T) {
	recs := []Record{mkRec(0, 1), mkRec(1, 2), mkRec(2, 3)}
	src := NewSliceSource(recs)
	if src.Len() != 3 {
		t.Fatalf("Len = %d", src.Len())
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2].Attrs[0] != 3 {
		t.Fatalf("Collect = %v", got)
	}
	if _, ok := src.Next(); ok {
		t.Error("exhausted source returned a record")
	}
	src.Reset()
	if r, ok := src.Next(); !ok || r.Attrs[0] != 1 {
		t.Error("Reset did not rewind")
	}
}

func TestEpochOf(t *testing.T) {
	e := Epoch{Length: 60}
	cases := []struct{ t, want uint32 }{{0, 0}, {59, 0}, {60, 1}, {121, 2}}
	for _, c := range cases {
		if got := e.Of(c.t); got != c.want {
			t.Errorf("Of(%d) = %d; want %d", c.t, got, c.want)
		}
	}
	if (Epoch{Length: 0}).Of(12345) != 0 {
		t.Error("unbounded epoch must always be 0")
	}
}

func TestClock(t *testing.T) {
	c := NewClock(10)
	if started, _, _ := c.Snapshot(); started {
		t.Error("fresh clock claims started")
	}
	e, rolled := c.Advance(3)
	if e != 0 || rolled {
		t.Fatalf("first Advance = %d, %v", e, rolled)
	}
	if e, rolled = c.Advance(9); e != 0 || rolled {
		t.Fatalf("same-epoch Advance = %d, %v", e, rolled)
	}
	if e, rolled = c.Advance(10); e != 1 || !rolled {
		t.Fatalf("boundary Advance = %d, %v", e, rolled)
	}
	if e, rolled = c.Advance(35); e != 3 || !rolled {
		t.Fatalf("skip Advance = %d, %v", e, rolled)
	}
	if c.Current() != 3 {
		t.Fatalf("Current = %d", c.Current())
	}
}

func TestBinaryTraceRoundTrip(t *testing.T) {
	schema := MustSchema(3)
	recs := []Record{
		mkRec(0, 1, 2, 3),
		mkRec(7, 4294967295, 0, 42),
		mkRec(100, 5, 6, 7),
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, schema, recs); err != nil {
		t.Fatal(err)
	}
	gotSchema, got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotSchema.NumAttrs != 3 {
		t.Fatalf("schema round trip: %d attrs", gotSchema.NumAttrs)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records; want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Time != recs[i].Time {
			t.Fatalf("record %d time mismatch", i)
		}
		for j := range recs[i].Attrs {
			if got[i].Attrs[j] != recs[i].Attrs[j] {
				t.Fatalf("record %d attr %d mismatch", i, j)
			}
		}
	}
}

func TestReadTraceErrors(t *testing.T) {
	if _, _, err := ReadTrace(strings.NewReader("BOGUS-HEADER")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, _, err := ReadTrace(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
	// Valid header, truncated body.
	schema := MustSchema(2)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, schema, []Record{mkRec(1, 2, 3)}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, _, err := ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestWriteTraceRejectsBadRecord(t *testing.T) {
	schema := MustSchema(2)
	var buf bytes.Buffer
	err := WriteTrace(&buf, schema, []Record{mkRec(0, 1, 2, 3)})
	if err == nil {
		t.Error("record/schema arity mismatch accepted")
	}
}

// Property: binary trace encoding round-trips arbitrary records.
func TestBinaryTraceProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		const arity = 4
		schema := MustSchema(arity)
		var recs []Record
		for i := 0; i+arity < len(vals); i += arity + 1 {
			recs = append(recs, Record{
				Attrs: vals[i : i+arity],
				Time:  vals[i+arity],
			})
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, schema, recs); err != nil {
			return false
		}
		_, got, err := ReadTrace(&buf)
		if err != nil || len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i].Time != recs[i].Time {
				return false
			}
			for j := range recs[i].Attrs {
				if got[i].Attrs[j] != recs[i].Attrs[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
