package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/attr"
)

// traceBufSize is the TraceSource read buffer. Records are decoded
// straight out of it, so one NextColumns call returns at most
// traceBufSize/rb records of rb bytes: 1024 (ColumnBatchLen) up to width
// 15, fewer past it.
const traceBufSize = 1 << 16

// TraceSource reads a binary trace incrementally, implementing Source
// without materializing the whole record batch — the right shape for
// feeding the engine from a pipe or a file larger than memory.
type TraceSource struct {
	r      *bufio.Reader
	closer io.Closer
	schema Schema
	left   uint64
	err    error
}

// NewTraceSource wraps a reader positioned at the start of a binary
// trace. The header is consumed immediately so the schema is available
// before the first record.
func NewTraceSource(r io.Reader) (*TraceSource, error) {
	br := bufio.NewReaderSize(r, traceBufSize)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic)
	}
	var version, numAttrs uint8
	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if version != traceVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, version)
	}
	if err := binary.Read(br, binary.LittleEndian, &numAttrs); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	schema, err := NewSchema(int(numAttrs))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	return &TraceSource{r: br, schema: schema, left: count}, nil
}

// OpenTraceSource opens a trace file for incremental reading; Close must
// be called when done (exhausting the source also releases the file).
func OpenTraceSource(path string) (*TraceSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src, err := NewTraceSource(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	src.closer = f
	return src, nil
}

// Schema returns the trace's schema.
func (t *TraceSource) Schema() Schema { return t.schema }

// Remaining returns the number of records not yet read.
func (t *TraceSource) Remaining() uint64 { return t.left }

// Next implements Source. Each returned record owns a fresh attribute
// slice.
func (t *TraceSource) Next() (Record, bool) {
	if t.err != nil || t.left == 0 {
		t.release()
		return Record{}, false
	}
	w := t.schema.NumAttrs
	rb := 4 * (w + 1)
	buf, ok := t.peek(rb)
	if !ok {
		return Record{}, false
	}
	attrs := make([]uint32, w)
	for i := range attrs {
		attrs[i] = binary.LittleEndian.Uint32(buf[4*i:])
	}
	rec := Record{Attrs: attrs, Time: binary.LittleEndian.Uint32(buf[4*w:])}
	t.consume(rb, 1)
	return rec, true
}

// NextColumns implements ColumnSource: it peeks a block of encoded records
// in the read buffer and transposes it into dst's columns (decodeRows),
// skipping the per-record attribute allocation Next pays and any copy out
// of the buffer. A call returns at most traceBufSize/rb records whatever
// the limit. Truncation is recorded as Next records it, except that the
// whole block that hit it is dropped.
func (t *TraceSource) NextColumns(dst *ColumnBatch, limit int) int {
	w := t.schema.NumAttrs
	dst.Reset(w)
	if t.err != nil || t.left == 0 {
		t.release()
		return 0
	}
	if limit <= 0 {
		return 0
	}
	rb := 4 * (w + 1)
	n := min(limit, traceBufSize/rb)
	if uint64(n) > t.left {
		n = int(t.left)
	}
	buf, ok := t.peek(n * rb)
	if !ok {
		return 0
	}
	dst.Extend(n)
	dst.Time = slices.Grow(dst.Time, n)[:n]
	decodeRows(dst.Cols, dst.Time, buf)
	t.consume(n*rb, n)
	return n
}

// peek returns the next size bytes of the read buffer, or records the
// truncation and releases the file.
func (t *TraceSource) peek(size int) ([]byte, bool) {
	buf, err := t.r.Peek(size)
	if err == nil {
		return buf, true
	}
	if err == io.EOF && len(buf) > 0 {
		err = io.ErrUnexpectedEOF
	}
	t.err = fmt.Errorf("%w: truncated with %d records left: %v", ErrBadTrace, t.left, err)
	t.release()
	return nil, false
}

// consume discards the size bytes of n records peek returned.
func (t *TraceSource) consume(size, n int) {
	_, _ = t.r.Discard(size) // cannot fail: peek buffered size bytes
	t.left -= uint64(n)
	if t.left == 0 {
		t.release()
	}
}

// decodeRows transposes the encoded records in buf — each len(cols)
// little-endian attribute words and a timestamp word — into cols and
// times, which hold exactly one slot per record. Width 4, the paper's
// ABCD schema, walks buf once, row by row, as a fixed run of loads and
// stores. Other widths take the record's words four at a time: one
// strided pass fills four columns, so buf is walked about (w+1)/4 times
// instead of w+1.
func decodeRows(cols [][]uint32, times []uint32, buf []byte) {
	le := binary.LittleEndian
	n := len(times)
	if len(cols) == 4 {
		c0, c1, c2, c3 := cols[0][:n], cols[1][:n], cols[2][:n], cols[3][:n]
		for i := range times {
			r := buf[20*i : 20*i+20]
			c0[i], c1[i], c2[i], c3[i] = le.Uint32(r), le.Uint32(r[4:]), le.Uint32(r[8:]), le.Uint32(r[12:])
			times[i] = le.Uint32(r[16:])
		}
		return
	}
	var all [attr.MaxAttrs + 1][]uint32
	words := append(append(all[:0], cols...), times)
	rb := 4 * len(words)
	g := 0
	for ; g+4 <= len(words); g += 4 {
		c0, c1, c2, c3 := words[g][:n], words[g+1][:n], words[g+2][:n], words[g+3][:n]
		for i, off := 0, 4*g; i < n; i, off = i+1, off+rb {
			r := buf[off : off+16]
			c0[i], c1[i], c2[i], c3[i] = le.Uint32(r), le.Uint32(r[4:]), le.Uint32(r[8:]), le.Uint32(r[12:])
		}
	}
	for ; g < len(words); g++ {
		col := words[g][:n]
		for i, off := 0, 4*g; i < n; i, off = i+1, off+rb {
			col[i] = le.Uint32(buf[off : off+4])
		}
	}
}

// Err implements Source.
func (t *TraceSource) Err() error { return t.err }

// Close releases the underlying file, if any.
func (t *TraceSource) Close() error {
	c := t.closer
	t.closer = nil
	if c != nil {
		return c.Close()
	}
	return nil
}

func (t *TraceSource) release() {
	if t.closer != nil {
		t.closer.Close()
		t.closer = nil
	}
}
