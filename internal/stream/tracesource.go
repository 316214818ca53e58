package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// TraceSource reads a binary trace incrementally, implementing Source
// without materializing the whole record batch — the right shape for
// feeding the engine from a pipe or a file larger than memory.
type TraceSource struct {
	r      *bufio.Reader
	closer io.Closer
	schema Schema
	left   uint64
	buf    []byte
	err    error
}

// NewTraceSource wraps a reader positioned at the start of a binary
// trace. The header is consumed immediately so the schema is available
// before the first record.
func NewTraceSource(r io.Reader) (*TraceSource, error) {
	br := bufio.NewReaderSize(r, 1<<16)
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
	return &TraceSource{
		r:      br,
		schema: schema,
		left:   count,
		buf:    make([]byte, 4*(int(numAttrs)+1)),
	}, nil
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
	if _, err := io.ReadFull(t.r, t.buf); err != nil {
		t.err = fmt.Errorf("%w: truncated with %d records left: %v", ErrBadTrace, t.left, err)
		t.release()
		return Record{}, false
	}
	t.left--
	attrs := make([]uint32, t.schema.NumAttrs)
	off := 0
	for i := range attrs {
		attrs[i] = binary.LittleEndian.Uint32(t.buf[off:])
		off += 4
	}
	rec := Record{Attrs: attrs, Time: binary.LittleEndian.Uint32(t.buf[off:])}
	if t.left == 0 {
		t.release()
	}
	return rec, true
}

// NextColumns implements ColumnSource: it reads a block of encoded
// records in one ReadFull and decodes each attribute with a stride-1
// destination pass, skipping the per-record attribute allocation Next
// pays. Truncation behaves exactly like Next: the error is recorded and
// whatever decoded cleanly before it is discarded.
func (t *TraceSource) NextColumns(dst *ColumnBatch, limit int) int {
	w := t.schema.NumAttrs
	dst.Reset(w)
	if t.err != nil || t.left == 0 || limit <= 0 {
		t.release()
		return 0
	}
	n := limit
	if uint64(n) > t.left {
		n = int(t.left)
	}
	rb := 4 * (w + 1)
	need := n * rb
	if cap(t.buf) < need {
		t.buf = make([]byte, need)
	}
	buf := t.buf[:need]
	if _, err := io.ReadFull(t.r, buf); err != nil {
		t.err = fmt.Errorf("%w: truncated with %d records left: %v", ErrBadTrace, t.left, err)
		t.release()
		return 0
	}
	t.left -= uint64(n)
	for a := 0; a < w; a++ {
		col := dst.Cols[a]
		off := 4 * a
		for i := 0; i < n; i++ {
			col = append(col, binary.LittleEndian.Uint32(buf[off:]))
			off += rb
		}
		dst.Cols[a] = col
	}
	times := dst.Time
	off := 4 * w
	for i := 0; i < n; i++ {
		times = append(times, binary.LittleEndian.Uint32(buf[off:]))
		off += rb
	}
	dst.Time = times
	if t.left == 0 {
		t.release()
	}
	return n
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
