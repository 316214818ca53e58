package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Trace file support: one compact little-endian binary encoding of a
// packet trace ("MAGT" magic), written by cmd/magggen and read by cmd/maggd
// and the benchmark.

const (
	traceMagic   = "MAGT"
	traceVersion = 1

	// maxTraceRecords is the largest header count ReadTrace accepts: a
	// forged count must not make it materialize records until memory
	// runs out.
	maxTraceRecords = 1 << 30
)

var (
	// ErrBadTrace reports a malformed trace file.
	ErrBadTrace = errors.New("stream: malformed trace")
)

// WriteTrace writes records in the binary trace format.
func WriteTrace(w io.Writer, schema Schema, recs []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	hdr := []any{uint8(traceVersion), uint8(schema.NumAttrs), uint64(len(recs))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	buf := make([]byte, 4*(schema.NumAttrs+1))
	for i := range recs {
		r := &recs[i]
		if err := schema.Validate(*r); err != nil {
			return err
		}
		off := 0
		for _, v := range r.Attrs {
			binary.LittleEndian.PutUint32(buf[off:], v)
			off += 4
		}
		binary.LittleEndian.PutUint32(buf[off:], r.Time)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace reads a binary trace written by WriteTrace into memory: a
// TraceSource drained by Collect, refused before any record is read when
// the header's record count is implausible.
func ReadTrace(r io.Reader) (Schema, []Record, error) {
	src, err := NewTraceSource(r)
	if err != nil {
		return Schema{}, nil, err
	}
	if src.Remaining() > maxTraceRecords {
		return Schema{}, nil, fmt.Errorf("%w: implausible record count %d", ErrBadTrace, src.Remaining())
	}
	recs, err := Collect(src)
	if err != nil {
		return Schema{}, nil, err
	}
	return src.Schema(), recs, nil
}

// WriteTraceFile writes a binary trace to the named file.
func WriteTraceFile(path string, schema Schema, recs []Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTrace(f, schema, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTraceFile reads a binary trace from the named file.
func ReadTraceFile(path string) (Schema, []Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return Schema{}, nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}
