package stream

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/attr"
)

// FuzzReadTrace: arbitrary bytes must never panic the binary trace
// reader, a valid trace embedded in the corpus must round trip, and the
// columnar decoder must agree with ReadTrace: the same schema and records
// when ReadTrace accepts the input, an error when it refuses it.
func FuzzReadTrace(f *testing.F) {
	var good bytes.Buffer
	if err := WriteTrace(&good, MustSchema(2), []Record{
		{Attrs: []uint32{1, 2}, Time: 3},
		{Attrs: []uint32{4, 5}, Time: 6},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte("MAGT"))
	f.Add([]byte{})
	f.Add([]byte("MAGTxxxxxxxxxxxxxxxxxxxxxxxx"))
	f.Add(good.Bytes()[:len(good.Bytes())-5])                     // truncated mid-record
	f.Add([]byte("MAGT\x01\x02\xff\xff\xff\xff\xff\xff\xff\xff")) // forged huge count
	f.Add([]byte("MAGT\x01\x00\x01\x00\x00\x00\x00\x00\x00\x00")) // zero-attr schema
	// Wider than the read buffer's 1024-record blocks: batches come short.
	wide := columnTestRecs(rand.New(rand.NewSource(37)), 700, attr.MaxAttrs)
	f.Add(encodeTrace(f, attr.MaxAttrs, wide))
	f.Fuzz(func(t *testing.T, data []byte) {
		schema, recs, err := ReadTrace(bytes.NewReader(data))
		colSchema, colRecs, colErr := readTraceColumns(data)
		if (err == nil) != (colErr == nil) {
			t.Fatalf("ReadTrace error %v, columnar decode error %v", err, colErr)
		}
		if err != nil {
			return
		}
		if colSchema.NumAttrs != schema.NumAttrs || len(colRecs) != len(recs) {
			t.Fatalf("columnar decode read %d records of width %d, ReadTrace %d of width %d",
				len(colRecs), colSchema.NumAttrs, len(recs), schema.NumAttrs)
		}
		for i := range recs {
			if colRecs[i].Time != recs[i].Time || !slices.Equal(colRecs[i].Attrs, recs[i].Attrs) {
				t.Fatalf("record %d: columnar %v, ReadTrace %v", i, colRecs[i], recs[i])
			}
		}
		// Whatever parses must re-encode and re-parse identically.
		var buf bytes.Buffer
		if err := WriteTrace(&buf, schema, recs); err != nil {
			t.Fatalf("accepted trace cannot re-encode: %v", err)
		}
		schema2, recs2, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if schema2.NumAttrs != schema.NumAttrs || len(recs2) != len(recs) {
			t.Fatal("round trip changed shape")
		}
	})
}

// readTraceColumns is ReadTrace through NextColumns: it drains a
// TraceSource over data in batches and gathers them back into records.
// The batch limit comes from data's last byte. (Every trace that parses
// starts with the same magic byte, so the first byte would fix one limit
// for every input whose records are compared.)
func readTraceColumns(data []byte) (Schema, []Record, error) {
	src, err := NewTraceSource(bytes.NewReader(data))
	if err != nil {
		return Schema{}, nil, err
	}
	limit := 1 + int(data[len(data)-1])
	var (
		cb   ColumnBatch
		recs []Record
	)
	for ReadColumns(src, &cb, limit) > 0 {
		for i := 0; i < cb.Len(); i++ {
			recs = append(recs, Record{Attrs: cb.Row(i, nil), Time: cb.Time[i]})
		}
	}
	return src.Schema(), recs, src.Err()
}
