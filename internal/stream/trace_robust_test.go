package stream

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writeTraceBytes renders a valid binary trace into memory so the tests
// can corrupt specific offsets.
func writeTraceBytes(t *testing.T, n int) []byte {
	t.Helper()
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Attrs: []uint32{uint32(i), uint32(i * 2)}, Time: uint32(i)}
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, MustSchema(2), recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readBytesAsFile(t *testing.T, data []byte) (Schema, []Record, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.magt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return ReadTraceFile(path)
}

// TestReadTraceFileRobustness: corrupt, truncated, and empty trace files
// must produce a clean ErrBadTrace — never a panic, and never a silently
// shortened record set.
func TestReadTraceFileRobustness(t *testing.T) {
	good := writeTraceBytes(t, 50)

	cases := []struct {
		name string
		data []byte
	}{
		{"zero-length", nil},
		{"magic only", []byte("MAGT")},
		{"wrong magic", append([]byte("XXXX"), good[4:]...)},
		{"header cut", good[:6]},
		{"truncated mid-record", good[:len(good)-5]},
		{"truncated at record boundary", good[:len(good)-12]},
		{"bad version", func() []byte {
			b := append([]byte(nil), good...)
			b[4] = 99
			return b
		}()},
		{"zero attrs", func() []byte {
			b := append([]byte(nil), good...)
			b[5] = 0
			return b
		}()},
		{"implausible count", func() []byte {
			b := append([]byte(nil), good...)
			for i := 6; i < 14; i++ {
				b[i] = 0xff
			}
			return b
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, recs, err := readBytesAsFile(t, tc.data)
			if err == nil {
				t.Fatalf("accepted (%d records)", len(recs))
			}
			if !errors.Is(err, ErrBadTrace) {
				t.Errorf("err = %v; want ErrBadTrace", err)
			}
			if len(recs) != 0 {
				t.Errorf("returned %d records alongside the error", len(recs))
			}
		})
	}

	// The uncorrupted trace still reads in full.
	schema, recs, err := readBytesAsFile(t, good)
	if err != nil {
		t.Fatal(err)
	}
	if schema.NumAttrs != 2 || len(recs) != 50 {
		t.Errorf("good trace read as %d attrs, %d records", schema.NumAttrs, len(recs))
	}
}

// TestReadTraceFileMissing: a nonexistent path reports the OS error, not
// a panic or a bogus empty trace.
func TestReadTraceFileMissing(t *testing.T) {
	_, _, err := ReadTraceFile(filepath.Join(t.TempDir(), "nope.magt"))
	if err == nil {
		t.Fatal("missing file accepted")
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("err = %v; want fs not-exist", err)
	}
}
