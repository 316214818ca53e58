package core

import (
	"testing"

	"repro/internal/attr"
	"repro/internal/feedgraph"
	"repro/internal/hfta"
	"repro/internal/stream"
)

// epochFeeder offers an engine one whole epoch per call: per distinct
// groups of the pairSQL workload, every attribute varying and the even
// groups offered twice, stream time advancing by one epoch (10 ticks)
// each time, in stream.ColumnBatchLen batches. The record's attribute
// slice and the batch are reused, so the feeder itself allocates nothing.
type epochFeeder struct {
	e     *Engine
	per   uint32
	epoch uint32
	attrs []uint32
	cb    stream.ColumnBatch
}

func (f *epochFeeder) feed(t *testing.T) {
	f.cb.Reset(len(f.attrs))
	for i := uint32(0); i < f.per*3/2; i++ {
		g := i
		if g >= f.per {
			g = (i - f.per) * 2
		}
		f.attrs[0], f.attrs[1], f.attrs[2], f.attrs[3] = g, g*3+1, g*5+2, g*7+3
		f.cb.Append(f.attrs, f.epoch*10+i%10)
		if f.cb.Len() == stream.ColumnBatchLen || i == f.per*3/2-1 {
			if err := f.e.ProcessColumnBatch(&f.cb); err != nil {
				t.Fatal(err)
			}
			f.cb.Reset(len(f.attrs))
		}
	}
	f.epoch++
}

func newEpochFeeder(t *testing.T, sqls []string, per uint32, opts Options) *epochFeeder {
	t.Helper()
	groups := feedgraph.GroupCounts{}
	for _, name := range []string{"A", "B", "C", "D", "AB", "BC", "BD", "CD", "ABC", "ABD", "ACD", "BCD", "ABCD"} {
		groups[attr.MustParseSet(name)] = float64(per)
	}
	opts.M, opts.Seed = 8000, 3
	e, err := New(sqls, groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &epochFeeder{e: e, per: per, attrs: make([]uint32, 4)}
}

// TestReadoutEpochCloseAllocs: with a result handler as the only consumer,
// a steady-state epoch — ingest in ColumnBatchLen batches, flush,
// MergeRun, one view per query, emission, Drop — allocates the same small
// constant at 16 and at 16384 groups per query, on one shard and on two:
// admission reuses its scratch, and the read-out reuses one header array
// and copies nothing.
func TestReadoutEpochCloseAllocs(t *testing.T) {
	for _, shards := range []int{0, 2} {
		var per [2]float64
		for i, groups := range []uint32{16, 16384} {
			rows := 0
			f := newEpochFeeder(t, pairSQL, groups, Options{Shards: shards,
				OnResults: func(_ attr.Set, _ uint32, r []hfta.Row, _ Degradation) { rows += len(r) },
			})
			for warm := 0; warm < 8; warm++ { // tables, scratch and ledgers reach their sizes
				f.feed(t)
			}
			rows = 0
			const runs = 16
			per[i] = testing.AllocsPerRun(runs, func() { f.feed(t) })
			if want := (runs + 1) * len(pairSQL) * int(groups); rows != want {
				t.Fatalf("shards=%d, %d groups/epoch: handler saw %d rows; want %d", shards, groups, rows, want)
			}
		}
		// Only amortized ledger growth is left (it reads 0 per epoch here).
		if per[0] != per[1] || per[1] > 2 {
			t.Errorf("shards=%d: epoch close allocated %.0f times at 16 groups/query and %.0f at 16384; want the same constant ≤ 2",
				shards, per[0], per[1])
		}
	}
}

// TestReadoutRetainedRowsImmutable pins both sides of the ownership
// rule on an engine whose read-out is shared with the window composer and
// compacted in place by HAVING. Rows pulled with Engine.Results are the
// caller's: after 50 later epochs have been merged into, read out of and
// dropped from the same recycled logs, and after the epoch itself is
// dropped, they are bit-for-bit what was returned. Handler rows are
// borrowed: a copy taken inside the handler equals that same reference.
func TestReadoutRetainedRowsImmutable(t *testing.T) {
	sqls := make([]string, len(pairSQL))
	for i, q := range pairSQL {
		sqls[i] = q + " window 2 slide 1 having cnt > 1"
	}
	const keepEpoch = 2
	run := func(opts Options) *epochFeeder {
		opts.OnWindow = func(attr.Set, hfta.WindowLedger, []hfta.WindowRow) {}
		f := newEpochFeeder(t, sqls, 300, opts)
		for f.epoch <= keepEpoch+1 { // the next epoch's records close keepEpoch
			f.feed(t)
		}
		return f
	}

	// Pull side: no handler, so every epoch stays until dropped.
	f := run(Options{})
	var kept, snapshot [][]hfta.Row
	for _, q := range f.e.queries {
		rows, err := f.e.Results(q, keepEpoch)
		if err != nil {
			t.Fatal(err)
		}
		kept, snapshot = append(kept, rows), append(snapshot, copyRows(rows))
	}
	for f.epoch <= keepEpoch+50 {
		f.feed(t)
		f.e.agg.Drop(f.epoch - 3) // recycle each closed epoch's logs, keepEpoch's first
	}
	if err := f.e.Finish(); err != nil {
		t.Fatal(err)
	}
	for i := range kept {
		if len(kept[i]) != 150 {
			t.Errorf("query %d: %d rows passed HAVING; want the 150 even groups", i, len(kept[i]))
		}
		if !hfta.Equal(kept[i], snapshot[i]) {
			t.Errorf("query %d: Results rows of epoch %d changed after later epochs and Drop", i, keepEpoch)
		}
	}

	// Handler side: a copy taken during the call is the same answer.
	var copied [][]hfta.Row
	h := run(Options{OnResults: func(_ attr.Set, epoch uint32, rows []hfta.Row, _ Degradation) {
		if epoch == keepEpoch {
			copied = append(copied, copyRows(rows))
		}
	}})
	if err := h.e.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(copied) != len(sqls) {
		t.Fatalf("handler copied %d read-outs of epoch %d; want %d", len(copied), keepEpoch, len(sqls))
	}
	for i := range copied {
		if !hfta.Equal(copied[i], snapshot[i]) {
			t.Errorf("query %d: rows copied in the handler differ from Results' rows", i)
		}
	}
	if left := h.e.AllResults(); len(left) != 0 {
		t.Errorf("%d rows retained by the engine despite the handler", len(left))
	}
}

// copyRows deep-copies borrowed rows (a ResultHandler's) so they outlive
// the call.
func copyRows(rows []hfta.Row) []hfta.Row {
	out := make([]hfta.Row, len(rows))
	for i, r := range rows {
		out[i] = hfta.Row{Rel: r.Rel, Epoch: r.Epoch,
			Key: append([]uint32(nil), r.Key...), Aggs: append([]int64(nil), r.Aggs...)}
	}
	return out
}

// TestReadoutHandlerOnlyMatchesShared: an engine whose only consumer is the
// result handler reads each query out as its turn comes (nothing is read
// ahead into e.closing) and must deliver, per query and epoch, exactly the
// rows an engine that shares one read-out with the window composer does.
func TestReadoutHandlerOnlyMatchesShared(t *testing.T) {
	collect := func(suffix string, opts Options) map[[2]uint32][]hfta.Row {
		sqls := make([]string, len(pairSQL))
		for i, q := range pairSQL {
			sqls[i] = q + suffix + " having cnt > 1"
		}
		got := map[[2]uint32][]hfta.Row{}
		var f *epochFeeder
		opts.OnResults = func(rel attr.Set, epoch uint32, rows []hfta.Row, _ Degradation) {
			if shared := f.e.sharedReadout(); shared != (len(f.e.closing) > 0) {
				t.Errorf("epoch %d %v: shared read-out %v but e.closing set %v", epoch, rel, shared, !shared)
			}
			got[[2]uint32{uint32(rel), epoch}] = copyRows(rows) // rows are borrowed
		}
		f = newEpochFeeder(t, sqls, 300, opts)
		for f.epoch < 6 {
			f.feed(t)
		}
		if err := f.e.Finish(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	alone := collect("", Options{})
	shared := collect(" window 2 slide 1", Options{OnWindow: func(attr.Set, hfta.WindowLedger, []hfta.WindowRow) {}})
	if len(alone) != 6*len(pairSQL) || len(alone) != len(shared) {
		t.Fatalf("handler-only engine delivered %d read-outs, shared %d; want %d", len(alone), len(shared), 6*len(pairSQL))
	}
	for k, rows := range alone {
		if len(rows) != 150 || !hfta.Equal(rows, shared[k]) {
			t.Errorf("query %v epoch %d: %d rows, differ from the shared read-out's %d", attr.Set(k[0]), k[1], len(rows), len(shared[k]))
		}
	}
}
