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
	last, ok := s.LastEpoch()
	if ok != (len(wantEpochs) > 0) || ok && last != wantEpochs[len(wantEpochs)-1] {
		t.Fatalf("LastEpoch = %d, %v; model epochs %v", last, ok, wantEpochs)
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
		for _, rel := range rels {
			if rng.Intn(3) == 0 {
				continue
			}
			rec := modelRecord(ep, rel, 0)
			batch = append(batch, rec)
			if _, dup := m[[2]uint32{ep, uint32(rel)}]; !dup {
				m[[2]uint32{ep, uint32(rel)}] = rec
			}
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
}
