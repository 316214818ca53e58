package epochstore

import (
	"cmp"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/attr"
)

// indexModel is the reference the sorted index is checked against: the
// persisted records in a map, every question answered by a walk and a sort
// (the index's previous implementation).
type indexModel map[[2]uint32]Record

func (m indexModel) epochs() []uint32 {
	var out []uint32
	for k := range m {
		if !slices.Contains(out, k[0]) {
			out = append(out, k[0])
		}
	}
	slices.Sort(out)
	return out
}

func (m indexModel) sorted() []Record {
	var out []Record
	for _, r := range m {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b Record) int {
		if c := cmp.Compare(a.Epoch, b.Epoch); c != 0 {
			return c
		}
		return cmp.Compare(a.Rel, b.Rel)
	})
	return out
}

// modelRecord derives a record's rows from (epoch, rel, salt), so a
// duplicate frame carrying another salt is told apart from the original.
func modelRecord(epoch uint32, rel attr.Set, salt int) Record {
	rows := make([]Row, int(epoch+uint32(rel))%3+1)
	for i := range rows {
		key := make([]uint32, rel.Size())
		for j := range key {
			key[j] = epoch*7 + uint32(i+j)
		}
		rows[i] = Row{Key: key, Aggs: []int64{int64(epoch), int64(salt), int64(i)}}
	}
	return Record{Epoch: epoch, Rel: rel, Rows: rows, Offered: uint64(epoch), Processed: uint64(epoch)}
}

// checkIndex compares every reader of the store with the model.
func checkIndex(t *testing.T, s *Store, m indexModel, rels []attr.Set, maxEpoch uint32) {
	t.Helper()
	if s.Len() != len(m) {
		t.Fatalf("Len = %d, model has %d", s.Len(), len(m))
	}
	wantEpochs := m.epochs()
	if got := s.Epochs(); !slices.Equal(got, wantEpochs) {
		t.Fatalf("Epochs = %v, model %v", got, wantEpochs)
	}
	for ep := uint32(0); ep <= maxEpoch+1; ep++ {
		var wantRels []attr.Set
		for _, rel := range rels {
			rec, has := m[[2]uint32{ep, uint32(rel)}]
			if s.Has(ep, rel) != has {
				t.Fatalf("Has(%d, %v) = %v, model %v", ep, rel, !has, has)
			}
			if !has {
				continue
			}
			wantRels = append(wantRels, rel)
			got, err := s.Read(ep, rel)
			if err != nil {
				t.Fatalf("Read(%d, %v): %v", ep, rel, err)
			}
			if !reflect.DeepEqual(*got, rec) {
				t.Fatalf("Read(%d, %v) = %+v, model %+v", ep, rel, *got, rec)
			}
		}
		attr.SortSets(wantRels)
		if got := s.Relations(ep); !slices.Equal(got, wantRels) {
			t.Fatalf("Relations(%d) = %v, model %v", ep, got, wantRels)
		}
	}
	if got, want := contents(t, s), m.sorted(); !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
		t.Fatalf("Scan order or contents differ from the model:\n got %+v\nwant %+v", got, want)
	}
}

// TestIndexMatchesMapModel drives the sorted index in random insert order —
// runs of new epochs, epochs older than the newest (a replay after a
// restore), re-appends of persisted records, segment rotation — and then a
// recovery scan that meets duplicate frames, checking every reader against
// a map after each step.
func TestIndexMatchesMapModel(t *testing.T) {
	rels := []attr.Set{attr.MustParseSet("C"), attr.MustParseSet("AB"), attr.MustParseSet("ABD"), attr.MustParseSet("BD")}
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir() + "/store"
	s := mustOpen(t, dir, Options{SegmentBytes: 400})
	m := indexModel{}
	var maxEpoch uint32
	for step := 0; step < 120; step++ {
		var ep uint32
		switch r := rng.Intn(10); {
		case r < 6 || maxEpoch == 0: // the common case: the next epoch
			ep = maxEpoch + 1 + uint32(rng.Intn(2))
		case r < 8: // a replay: an epoch older than the newest
			ep = uint32(rng.Intn(int(maxEpoch)))
		default: // a re-append of something possibly persisted
			ep = uint32(rng.Intn(int(maxEpoch) + 1))
		}
		maxEpoch = max(maxEpoch, ep)
		var batch []Record
		add := func(ep uint32, rel attr.Set, salt int) {
			rec := modelRecord(ep, rel, salt)
			batch = append(batch, rec)
			if _, dup := m[[2]uint32{ep, uint32(rel)}]; !dup {
				m[[2]uint32{ep, uint32(rel)}] = rec
			}
		}
		for _, rel := range rels {
			if rng.Intn(3) != 0 {
				add(ep, rel, 0)
			}
		}
		switch r := rng.Intn(8); {
		case r == 0 && len(batch) > 0: // a relation repeated inside the batch: the first copy counts
			add(ep, batch[rng.Intn(len(batch))].Rel, 2)
		case r == 1: // a second epoch in the batch: a run of its own
			maxEpoch++
			add(maxEpoch, rels[rng.Intn(len(rels))], 0)
		}
		if err := s.AppendEpoch(batch); err != nil {
			t.Fatalf("step %d: AppendEpoch(epoch %d): %v", step, ep, err)
		}
		if step%10 == 0 {
			checkIndex(t, s, m, rels, maxEpoch)
		}
	}
	checkIndex(t, s, m, rels, maxEpoch)
	if len(s.segs) < 3 {
		t.Fatalf("only %d segments; the model run never rotated", len(s.segs))
	}
	rotated := false // a run of several relations followed by a segment rotation
	for i := 1; i < len(s.index); i++ {
		rotated = rotated || s.index[i].seg != s.index[i-1].seg && len(s.relLists[s.index[i-1].rels]) > 1
	}
	if !rotated {
		t.Fatal("no multi-relation run was followed by a segment rotation")
	}

	// Recovery: frames for already-persisted keys, carrying other rows, are
	// appended behind the store's back. The scan must skip and count them,
	// and every reader must still answer with the first copies.
	active := s.segName(s.activeID)
	s.Close()
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	const dups = 5
	recs := m.sorted()
	var frames []byte
	for i := 0; i < dups; i++ {
		orig := recs[rng.Intn(len(recs))]
		dup := modelRecord(orig.Epoch, orig.Rel, 1+i)
		start := len(frames)
		frames, err = encodeRecord(append(frames, make([]byte, FrameHeaderSize)...), &dup)
		if err != nil {
			t.Fatal(err)
		}
		SealFrame(frames[start:])
	}
	if _, err := f.Write(frames); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{SegmentBytes: 400})
	if got := s2.Recovery().DuplicateFrames; got != dups {
		t.Fatalf("Recovery.DuplicateFrames = %d, want %d", got, dups)
	}
	checkIndex(t, s2, m, rels, maxEpoch)

	// A torn tail that cuts a run: the epoch's first two records survive
	// the recovery scan, the third is cut mid-frame, the fourth is gone.
	maxEpoch++
	var batch []Record
	for _, rel := range rels {
		batch = append(batch, modelRecord(maxEpoch, rel, 0))
	}
	if err := s2.AppendEpoch(batch); err != nil {
		t.Fatal(err)
	}
	i, _, _ := s2.find(maxEpoch, rels[0])
	run := s2.index[i]
	if got := s2.relLists[run.rels]; !slices.Equal(got, rels) {
		t.Fatalf("one AppendEpoch of %v indexed a run of %v", rels, got)
	}
	active = s2.segName(s2.activeID)
	s2.Close()
	third := int64(run.off)
	for k := 0; k < 2; k++ {
		payload, _ := encodeRecord(nil, &batch[k])
		third += FrameHeaderSize + int64(len(payload))
	}
	if err := os.Truncate(active, third+FrameHeaderSize+3); err != nil {
		t.Fatal(err)
	}
	m[[2]uint32{maxEpoch, uint32(rels[0])}] = batch[0]
	m[[2]uint32{maxEpoch, uint32(rels[1])}] = batch[1]
	s3 := mustOpen(t, dir, Options{SegmentBytes: 400})
	if got, want := s3.Recovery().TruncatedBytes, int64(FrameHeaderSize+3); got != want {
		t.Fatalf("Recovery.TruncatedBytes = %d, want %d", got, want)
	}
	checkIndex(t, s3, m, rels, maxEpoch)
}

// noSyncFS is the real filesystem without fsync, for tests that append many
// epochs and check only what the index holds.
type noSyncFS struct{ OSFS }

type noSyncFile struct{ File }

func (noSyncFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := OSFS{}.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (noSyncFile) Sync() error { return nil }

// TestIndexOneEntryPerEpoch: an epoch's relations, appended together, take
// one 16-byte index entry, after the appends and after a recovery scan,
// and every interned relation list is the one the epochs share.
func TestIndexOneEntryPerEpoch(t *testing.T) {
	rels := []attr.Set{attr.MustParseSet("AB"), attr.MustParseSet("BC"), attr.MustParseSet("BD"), attr.MustParseSet("CD")}
	dir := t.TempDir() + "/store"
	opts := Options{FS: noSyncFS{}}
	s := mustOpen(t, dir, opts)
	const epochs = 10000
	batch := make([]Record, len(rels))
	for ep := uint32(0); ep < epochs; ep++ {
		for i, rel := range rels {
			batch[i] = Record{Epoch: ep, Rel: rel, Rows: []Row{{Key: make([]uint32, rel.Size()), Aggs: []int64{int64(ep)}}}}
		}
		if err := s.AppendEpoch(batch); err != nil {
			t.Fatal(err)
		}
	}
	check := func(s *Store, when string) {
		t.Helper()
		if len(s.index) != epochs || len(s.relLists) != 1 || s.Len() != epochs*len(rels) {
			t.Fatalf("%s: %d index entries over %d relation lists for %d records, want %d, 1, %d",
				when, len(s.index), len(s.relLists), s.Len(), epochs, epochs*len(rels))
		}
		if rec, err := s.Read(epochs/2, rels[3]); err != nil || rec.Rows[0].Aggs[0] != epochs/2 {
			t.Fatalf("%s: Read(%d, %v) = %+v, %v", when, epochs/2, rels[3], rec, err)
		}
	}
	check(s, "appended")
	s.Close()
	check(mustOpen(t, dir, opts), "recovered")
}
