package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Trace file support. Two interchangeable encodings of a packet trace:
//
//   - binary: a compact little-endian format ("MAGT" magic) used by
//     cmd/magggen and cmd/maggd for the large synthetic traces;
//   - text: one record per line, comma-separated attribute values followed
//     by the timestamp, with '#' comments — convenient for hand-written
//     fixtures and for importing data from other tools.

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

// WriteTextTrace writes records in the text format: a header comment, then
// one "v1,v2,...,vn,time" line per record.
func WriteTextTrace(w io.Writer, schema Schema, recs []Record) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# magg text trace: %d attributes (%s), %d records\n",
		schema.NumAttrs, strings.Join(schema.Names, ","), len(recs))
	for i := range recs {
		r := &recs[i]
		if err := schema.Validate(*r); err != nil {
			return err
		}
		for _, v := range r.Attrs {
			fmt.Fprintf(bw, "%d,", v)
		}
		fmt.Fprintf(bw, "%d\n", r.Time)
	}
	return bw.Flush()
}

// ReadTextTrace parses the text format. The schema is inferred from the
// first data line: all fields but the last are attributes.
func ReadTextTrace(r io.Reader) (Schema, []Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var (
		schema Schema
		recs   []Record
		lineNo int
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) < 2 {
			return Schema{}, nil, fmt.Errorf("%w: line %d: need at least one attribute and a timestamp", ErrBadTrace, lineNo)
		}
		if schema.NumAttrs == 0 {
			s, err := NewSchema(len(fields) - 1)
			if err != nil {
				return Schema{}, nil, fmt.Errorf("%w: line %d: %v", ErrBadTrace, lineNo, err)
			}
			schema = s
		} else if len(fields)-1 != schema.NumAttrs {
			return Schema{}, nil, fmt.Errorf("%w: line %d: %d attributes, expected %d", ErrBadTrace, lineNo, len(fields)-1, schema.NumAttrs)
		}
		attrs := make([]uint32, schema.NumAttrs)
		for i := 0; i < schema.NumAttrs; i++ {
			v, err := strconv.ParseUint(strings.TrimSpace(fields[i]), 10, 32)
			if err != nil {
				return Schema{}, nil, fmt.Errorf("%w: line %d field %d: %v", ErrBadTrace, lineNo, i+1, err)
			}
			attrs[i] = uint32(v)
		}
		ts, err := strconv.ParseUint(strings.TrimSpace(fields[len(fields)-1]), 10, 32)
		if err != nil {
			return Schema{}, nil, fmt.Errorf("%w: line %d timestamp: %v", ErrBadTrace, lineNo, err)
		}
		recs = append(recs, Record{Attrs: attrs, Time: uint32(ts)})
	}
	if err := sc.Err(); err != nil {
		return Schema{}, nil, err
	}
	if schema.NumAttrs == 0 {
		return Schema{}, nil, fmt.Errorf("%w: no records", ErrBadTrace)
	}
	return schema, recs, nil
}
