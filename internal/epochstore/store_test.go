package epochstore

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/attr"
)

// testRecords builds deterministic records for epochs [1, epochs] over
// two relations, with contents derived from (epoch, rel) so any mixup
// between records is caught by content comparison.
func testRecords(epochs int) [][]Record {
	rels := []attr.Set{attr.MustParseSet("AB"), attr.MustParseSet("C")}
	var out [][]Record
	for e := 1; e <= epochs; e++ {
		var recs []Record
		for ri, rel := range rels {
			n := (e+ri)%4 + 1
			rows := make([]Row, n)
			for i := range rows {
				key := make([]uint32, rel.Size())
				for j := range key {
					key[j] = uint32(e*100 + ri*10 + i + j)
				}
				rows[i] = Row{
					Key:  key,
					Aggs: []int64{int64(e * 1000), int64(-i), int64(ri)},
				}
			}
			recs = append(recs, Record{
				Epoch: uint32(e), Rel: rel, Rows: rows,
				Offered: uint64(e * 10), Processed: uint64(e*10 - 3),
				Dropped: 2, Late: 1,
			})
		}
		out = append(out, recs)
	}
	return out
}

// contents flattens a store into comparable records via Scan.
func contents(t *testing.T, s *Store) []Record {
	t.Helper()
	var out []Record
	if err := s.Scan(func(r *Record) error { out = append(out, *r); return nil }); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return out
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir() + "/store"
	s := mustOpen(t, dir, Options{})
	epochs := testRecords(5)
	var want []Record
	for _, recs := range epochs {
		if err := s.AppendEpoch(recs); err != nil {
			t.Fatalf("AppendEpoch: %v", err)
		}
		want = append(want, recs...)
	}
	if got := s.Len(); got != len(want) {
		t.Fatalf("Len = %d, want %d", got, len(want))
	}
	for _, w := range want {
		if !s.Has(w.Epoch, w.Rel) {
			t.Fatalf("Has(%d, %v) = false", w.Epoch, w.Rel)
		}
		r, err := s.Read(w.Epoch, w.Rel)
		if err != nil {
			t.Fatalf("Read(%d, %v): %v", w.Epoch, w.Rel, err)
		}
		if !reflect.DeepEqual(*r, w) {
			t.Fatalf("Read(%d, %v) = %+v, want %+v", w.Epoch, w.Rel, *r, w)
		}
	}
	if got := s.Epochs(); !reflect.DeepEqual(got, []uint32{1, 2, 3, 4, 5}) {
		t.Fatalf("Epochs = %v", got)
	}
	if rels := s.Relations(3); len(rels) != 2 {
		t.Fatalf("Relations(3) = %v, want 2 relations", rels)
	}
	if s.Has(99, attr.MustParseSet("AB")) {
		t.Fatal("Has(99) = true for an unpersisted epoch")
	}
	if _, err := s.Read(99, attr.MustParseSet("AB")); err == nil {
		t.Fatal("Read(99) succeeded for an unpersisted epoch")
	}
}

func TestReopenPreservesContents(t *testing.T) {
	dir := t.TempDir() + "/store"
	s := mustOpen(t, dir, Options{})
	epochs := testRecords(4)
	for _, recs := range epochs[:3] {
		if err := s.AppendEpoch(recs); err != nil {
			t.Fatal(err)
		}
	}
	before := contents(t, s)
	s.Close()

	s2 := mustOpen(t, dir, Options{})
	if rec := s2.Recovery(); rec.Dirty() {
		t.Fatalf("clean reopen reported recovery %+v", rec)
	}
	if got := contents(t, s2); !reflect.DeepEqual(got, before) {
		t.Fatalf("reopen changed contents:\n got %+v\nwant %+v", got, before)
	}
	// The store keeps accepting appends after reopen.
	if err := s2.AppendEpoch(epochs[3]); err != nil {
		t.Fatal(err)
	}
	if got := s2.Len(); got != len(before)+2 {
		t.Fatalf("Len after reopen-append = %d, want %d", got, len(before)+2)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir() + "/store"
	s := mustOpen(t, dir, Options{SegmentBytes: 256})
	epochs := testRecords(20)
	var want []Record
	for _, recs := range epochs {
		if err := s.AppendEpoch(recs); err != nil {
			t.Fatal(err)
		}
		want = append(want, recs...)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) == segSuffix {
			segs++
		}
	}
	if segs < 3 {
		t.Fatalf("got %d segments at SegmentBytes=256, want rotation (>= 3)", segs)
	}
	if got := contents(t, s); !reflect.DeepEqual(got, want) {
		t.Fatal("rotated store contents diverge from appended records")
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{SegmentBytes: 256})
	if got := contents(t, s2); !reflect.DeepEqual(got, want) {
		t.Fatal("reopened rotated store contents diverge")
	}
}

func TestAppendIsIdempotent(t *testing.T) {
	dir := t.TempDir() + "/store"
	s := mustOpen(t, dir, Options{})
	recs := testRecords(1)[0]
	for i := 0; i < 3; i++ {
		if err := s.AppendEpoch(recs); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Len(); got != len(recs) {
		t.Fatalf("Len after re-appends = %d, want %d", got, len(recs))
	}
	size1, err := OSFS{}.Size(s.segName(s.activeID))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEpoch(recs); err != nil {
		t.Fatal(err)
	}
	size2, _ := OSFS{}.Size(s.segName(s.activeID))
	if size2 != size1 {
		t.Fatalf("duplicate append grew the segment: %d -> %d bytes", size1, size2)
	}
}

func TestManifestCorruptionFallsBackToDirScan(t *testing.T) {
	dir := t.TempDir() + "/store"
	s := mustOpen(t, dir, Options{SegmentBytes: 256})
	epochs := testRecords(12)
	var want []Record
	for _, recs := range epochs {
		if err := s.AppendEpoch(recs); err != nil {
			t.Fatal(err)
		}
		want = append(want, recs...)
	}
	s.Close()

	for name, mutate := range map[string]func(string) error{
		"truncated": func(p string) error { return os.Truncate(p, 3) },
		"flipped": func(p string) error {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			b[len(b)-1] ^= 0xff
			return os.WriteFile(p, b, 0o644)
		},
		"missing": os.Remove,
	} {
		t.Run(name, func(t *testing.T) {
			if err := mutate(dir + "/" + manifestName); err != nil {
				t.Fatal(err)
			}
			s2 := mustOpen(t, dir, Options{SegmentBytes: 256})
			if !s2.Recovery().ManifestRebuilt {
				t.Fatal("recovery did not report a manifest rebuild")
			}
			if got := contents(t, s2); !reflect.DeepEqual(got, want) {
				t.Fatal("contents diverge after manifest rebuild")
			}
			s2.Close()
		})
	}
}

func TestTornTailIsTruncated(t *testing.T) {
	dir := t.TempDir() + "/store"
	s := mustOpen(t, dir, Options{})
	epochs := testRecords(3)
	var want []Record
	for _, recs := range epochs {
		if err := s.AppendEpoch(recs); err != nil {
			t.Fatal(err)
		}
		want = append(want, recs...)
	}
	seg := s.segName(s.activeID)
	s.Close()

	// Simulate a torn append: garbage bytes past the last committed frame.
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := mustOpen(t, dir, Options{})
	if tb := s2.Recovery().TruncatedBytes; tb != 6 {
		t.Fatalf("TruncatedBytes = %d, want 6", tb)
	}
	if got := contents(t, s2); !reflect.DeepEqual(got, want) {
		t.Fatal("contents diverge after torn-tail truncation")
	}
	// The repaired store accepts new appends and survives a clean reopen.
	extra := testRecords(4)[3]
	if err := s2.AppendEpoch(extra); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := mustOpen(t, dir, Options{})
	if rec := s3.Recovery(); rec.Dirty() {
		t.Fatalf("reopen after repair still dirty: %+v", rec)
	}
	if got := s3.Len(); got != len(want)+len(extra) {
		t.Fatalf("Len = %d, want %d", got, len(want)+len(extra))
	}
}

func TestMidLogCorruptionDropsSuffix(t *testing.T) {
	dir := t.TempDir() + "/store"
	s := mustOpen(t, dir, Options{SegmentBytes: 200})
	epochs := testRecords(15)
	for _, recs := range epochs {
		if err := s.AppendEpoch(recs); err != nil {
			t.Fatal(err)
		}
	}
	all := contents(t, s)
	if len(s.segs) < 3 {
		t.Fatalf("need >= 3 segments for this test, got %d", len(s.segs))
	}
	victim := s.segName(s.segs[1])
	s.Close()

	// Flip a payload byte mid-log: everything from that frame on must go.
	b, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	b[segHeaderSize+FrameHeaderSize+2] ^= 0xff
	if err := os.WriteFile(victim, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{SegmentBytes: 200})
	rec := s2.Recovery()
	if rec.TruncatedBytes == 0 || rec.DroppedSegments == 0 {
		t.Fatalf("recovery = %+v, want truncation and dropped segments", rec)
	}
	got := contents(t, s2)
	if len(got) == 0 || len(got) >= len(all) {
		t.Fatalf("recovered %d records, want a proper nonempty prefix of %d", len(got), len(all))
	}
	if !reflect.DeepEqual(got, all[:len(got)]) {
		t.Fatal("recovered records are not a prefix of the original log")
	}
	// And the store still appends: re-adding everything restores the log.
	for _, recs := range epochs {
		if err := s2.AppendEpoch(recs); err != nil {
			t.Fatal(err)
		}
	}
	if got := contents(t, s2); !reflect.DeepEqual(got, all) {
		t.Fatal("re-append after mid-log corruption did not restore contents")
	}
}

func TestEmptyRelationRecord(t *testing.T) {
	// Zero-row records (an epoch where a query saw no groups) round-trip.
	dir := t.TempDir() + "/store"
	s := mustOpen(t, dir, Options{})
	rec := Record{Epoch: 7, Rel: attr.MustParseSet("AD"), Offered: 5, Processed: 5}
	if err := s.AppendEpoch([]Record{rec}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{})
	got, err := s2.Read(7, rec.Rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 0 || got.Offered != 5 || got.Processed != 5 {
		t.Fatalf("zero-row record round-trip = %+v", got)
	}
}

func TestClosedStoreRejectsOps(t *testing.T) {
	dir := t.TempDir() + "/store"
	s := mustOpen(t, dir, Options{})
	recs := testRecords(1)[0]
	if err := s.AppendEpoch(recs); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.AppendEpoch(recs); err != ErrClosed {
		t.Fatalf("AppendEpoch after Close = %v, want ErrClosed", err)
	}
	if _, err := s.Read(recs[0].Epoch, recs[0].Rel); err != ErrClosed {
		t.Fatalf("Read after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close = %v", err)
	}
}
