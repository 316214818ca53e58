package stream

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func timesOf(recs []Record) []uint32 {
	out := make([]uint32, len(recs))
	for i, r := range recs {
		out[i] = r.Time
	}
	return out
}

func TestOrderedSourcePassesOrderedStream(t *testing.T) {
	in := []Record{mkRec(0, 1), mkRec(1, 2), mkRec(1, 3), mkRec(5, 4)}
	o := NewOrderedSource(NewSliceSource(in), 2)
	out, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d records", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].Time < out[i-1].Time {
			t.Fatalf("order violated: %v", timesOf(out))
		}
	}
	if o.Late() != 0 {
		t.Errorf("Late = %d on an ordered stream", o.Late())
	}
}

func TestOrderedSourceReorders(t *testing.T) {
	// Timestamps 3,1,2 with slack 3: all fit in the window and come out
	// sorted.
	in := []Record{mkRec(3, 1), mkRec(1, 2), mkRec(2, 3), mkRec(4, 4)}
	o := NewOrderedSource(NewSliceSource(in), 3)
	out, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{1, 2, 3, 4}
	got := timesOf(out)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("times = %v; want %v", got, want)
		}
	}
	if o.Late() != 0 {
		t.Errorf("Late = %d", o.Late())
	}
}

func TestOrderedSourceDropsLate(t *testing.T) {
	// With slack 1, the record at t=0 arriving after t=10 has passed the
	// watermark (10-1=9) and must be dropped.
	in := []Record{mkRec(5, 1), mkRec(10, 2), mkRec(0, 3), mkRec(11, 4)}
	o := NewOrderedSource(NewSliceSource(in), 1)
	out, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	if o.Late() != 1 {
		t.Errorf("Late = %d; want 1", o.Late())
	}
	for i := 1; i < len(out); i++ {
		if out[i].Time < out[i-1].Time {
			t.Fatalf("order violated: %v", timesOf(out))
		}
	}
	if len(out) != 3 {
		t.Errorf("emitted %d records; want 3", len(out))
	}
}

// Property: for any input and slack, the output is sorted, and output
// count + late count equals input count.
func TestOrderedSourceProperty(t *testing.T) {
	f := func(seed int64, slackRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		slack := uint32(slackRaw % 16)
		n := 200
		in := make([]Record, n)
		tm := uint32(0)
		for i := range in {
			// Mostly advancing time with occasional back-jumps.
			if rng.Intn(4) == 0 && tm > 3 {
				in[i] = mkRec(tm-uint32(rng.Intn(4)), uint32(i))
			} else {
				in[i] = mkRec(tm, uint32(i))
			}
			if rng.Intn(2) == 0 {
				tm++
			}
		}
		o := NewOrderedSource(NewSliceSource(in), slack)
		out, err := Collect(o)
		if err != nil {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i].Time < out[i-1].Time {
				return false
			}
		}
		return uint64(len(out))+o.Late() == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: with slack at least the maximum displacement, nothing is
// dropped and the output is a sorted permutation of the input.
func TestOrderedSourceLosslessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100
		in := make([]Record, n)
		for i := range in {
			base := uint32(i)
			jitter := uint32(rng.Intn(5))
			tm := uint32(0)
			if base > jitter {
				tm = base - jitter
			}
			in[i] = mkRec(tm, uint32(i))
		}
		o := NewOrderedSource(NewSliceSource(in), 8) // > max displacement
		out, err := Collect(o)
		if err != nil || o.Late() != 0 || len(out) != n {
			return false
		}
		seen := map[uint32]bool{}
		for _, r := range out {
			if seen[r.Attrs[0]] {
				return false
			}
			seen[r.Attrs[0]] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// heapWindow is the reordering window written over container/heap, one
// input record at a time through Next: the reference for which records
// are late and for the order equal-timestamp records leave in.
type heapWindow struct {
	src       Source
	slack     uint32
	buf       refHeap
	watermark uint32
	started   bool
	drained   bool
	late      uint64
}

type refHeap []Record

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].Time < h[j].Time }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(Record)) }
func (h *refHeap) Pop() any {
	old := *h
	rec := old[len(old)-1]
	*h = old[:len(old)-1]
	return rec
}

func (w *heapWindow) Err() error { return nil }

func (w *heapWindow) Next() (Record, bool) {
	for {
		if len(w.buf) > 0 && (w.drained || w.buf[0].Time <= w.watermark) {
			return heap.Pop(&w.buf).(Record), true
		}
		if w.drained {
			return Record{}, false
		}
		rec, ok := w.src.Next()
		if !ok {
			w.drained = true
			continue
		}
		if w.started && rec.Time < w.watermark {
			w.late++
			continue
		}
		w.started = true
		heap.Push(&w.buf, rec)
		if rec.Time >= w.slack && rec.Time-w.slack > w.watermark {
			w.watermark = rec.Time - w.slack
		}
	}
}

// jitteredRecs draws n width-wide records whose timestamps advance with
// many ties and jump back by up to back units one record in four, so a
// small slack sees late records and every slack sees equal timestamps.
// Attribute 0 is the arrival index, which tells equal-timestamp records
// apart.
func jitteredRecs(rng *rand.Rand, n, width int, back uint32) []Record {
	recs := make([]Record, n)
	tm := back
	for i := range recs {
		attrs := make([]uint32, width)
		attrs[0] = uint32(i)
		for a := 1; a < width; a++ {
			attrs[a] = rng.Uint32() % 1000
		}
		t := tm
		if rng.Intn(4) == 0 {
			t -= uint32(rng.Intn(int(back) + 1))
		}
		recs[i] = Record{Attrs: attrs, Time: t}
		if rng.Intn(3) == 0 {
			tm++
		}
	}
	return recs
}

// nextOnly hides a source's NextColumns, so ReadColumns falls back to Next.
type nextOnly struct{ Source }

// TestOrderedSourceMatchesHeapWindow: draining an OrderedSource through
// Next, through NextColumns at several limits, and through both mixed
// yields exactly the container/heap window's records, in its order, with
// its late count — over a trace file, an in-memory slice and a Next-only
// source, at slacks that drop records and slacks that drop none.
func TestOrderedSourceMatchesHeapWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, width := range []int{1, 4} {
		recs := jitteredRecs(rng, 5000, width, 6)
		raw := encodeTrace(t, width, recs)
		sources := map[string]func() Source{
			"trace": func() Source { return openTrace(t, raw) },
			"slice": func() Source { return NewSliceSource(recs) },
			"next":  func() Source { return nextOnly{NewSliceSource(recs)} },
		}
		for _, slack := range []uint32{0, 2, 8} {
			ref := &heapWindow{src: NewSliceSource(recs), slack: slack}
			want, _ := Collect(ref)
			if slack == 0 && ref.late == 0 {
				t.Fatal("the trace has no late records")
			}
			for name, open := range sources {
				for _, limit := range []int{0, 1, 7, ColumnBatchLen} {
					o := NewOrderedSource(open(), slack)
					var got []Record
					var cb ColumnBatch
					for {
						if limit == 0 { // Next only
							rec, ok := o.Next()
							if !ok {
								break
							}
							got = append(got, rec)
							continue
						}
						n := ReadColumns(o, &cb, limit)
						if n == 0 {
							break
						}
						for i := 0; i < n; i++ {
							got = append(got, Record{Attrs: cb.Row(i, nil), Time: cb.Time[i]})
						}
						if limit == 7 { // mix the two
							if rec, ok := o.Next(); ok {
								got = append(got, rec)
							}
						}
					}
					if err := o.Err(); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) || o.Late() != ref.late {
						t.Fatalf("width %d %s slack %d limit %d: %d records, %d late; container/heap window %d records, %d late",
							width, name, slack, limit, len(got), o.Late(), len(want), ref.late)
					}
				}
			}
		}
	}
}

// TestOrderedSourceNextColumnsAllocs: reading a reordered width-4 trace in
// ColumnBatchLen batches allocates nothing in steady state; the arena,
// the heap and the input batch are recycled.
func TestOrderedSourceNextColumnsAllocs(t *testing.T) {
	const runs = 40
	rng := rand.New(rand.NewSource(42))
	recs := jitteredRecs(rng, 2*(runs+8)*ColumnBatchLen, 4, 6) // room for the late drops
	o := NewOrderedSource(openTrace(t, encodeTrace(t, 4, recs)), 3)
	var cb ColumnBatch
	for i := 0; i < 4; i++ {
		ReadColumns(o, &cb, ColumnBatchLen)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if n := ReadColumns(o, &cb, ColumnBatchLen); n != ColumnBatchLen {
			t.Fatalf("ReadColumns returned %d records", n)
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per %d-record batch, want 0", allocs, ColumnBatchLen)
	}
	if o.Late() == 0 {
		t.Error("the trace has no late records")
	}
}

// TestOrderedSourceRefusesWidthChange: a source whose record width changes
// between batches ends the reordered stream with an error after releasing
// what it buffered.
func TestOrderedSourceRefusesWidthChange(t *testing.T) {
	in := []Record{mkRec(1, 1, 1), mkRec(2, 2, 2), mkRec(3, 3)}
	src := &batchedSource{recs: in, batch: 2}
	out, err := Collect(NewOrderedSource(src, 0))
	if err == nil || len(out) != 2 {
		t.Fatalf("got %d records, err %v; want 2 records and a width error", len(out), err)
	}
}

// batchedSource serves its records in column batches of at most batch.
type batchedSource struct {
	recs  []Record
	batch int
}

func (s *batchedSource) Next() (Record, bool) { panic("batchedSource is read in batches") }
func (s *batchedSource) Err() error           { return nil }
func (s *batchedSource) NextColumns(dst *ColumnBatch, limit int) int {
	n := min(limit, s.batch, len(s.recs))
	if n == 0 {
		dst.Reset(0)
		return 0
	}
	dst.Reset(len(s.recs[0].Attrs))
	for _, r := range s.recs[:n] {
		dst.Append(r.Attrs, r.Time)
	}
	s.recs = s.recs[n:]
	return n
}
