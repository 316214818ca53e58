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
// each time. The record's attribute slice is reused, so the feeder itself
// allocates nothing.
type epochFeeder struct {
	e     *Engine
	per   uint32
	epoch uint32
	attrs []uint32
}

func (f *epochFeeder) feed(t *testing.T) {
	for i := uint32(0); i < f.per*3/2; i++ {
		g := i
		if g >= f.per {
			g = (i - f.per) * 2
		}
		f.attrs[0], f.attrs[1], f.attrs[2], f.attrs[3] = g, g*3+1, g*5+2, g*7+3
		if err := f.e.Process(stream.Record{Attrs: f.attrs, Time: f.epoch*10 + i%10}); err != nil {
			t.Fatal(err)
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

// TestReadoutEpochCloseAllocs: with a result handler installed, a
// steady-state epoch — ingest, flush, MergeRun, one read-out per query,
// emission, Drop — allocates a number of times that depends on the number
// of queries, not on the number of groups.
func TestReadoutEpochCloseAllocs(t *testing.T) {
	var per [2]float64
	for i, groups := range []uint32{64, 16384} {
		rows := 0
		f := newEpochFeeder(t, pairSQL, groups, Options{
			OnResults: func(_ attr.Set, _ uint32, r []hfta.Row, _ Degradation) { rows += len(r) },
		})
		for warm := 0; warm < 8; warm++ { // tables, scratch and ledgers reach their sizes
			f.feed(t)
		}
		rows = 0
		const runs = 16
		per[i] = testing.AllocsPerRun(runs, func() { f.feed(t) })
		if want := (runs + 1) * len(pairSQL) * int(groups); rows != want {
			t.Fatalf("%d groups/epoch: handler saw %d rows; want %d", groups, rows, want)
		}
	}
	// Three per read-out, plus the epoch's read-out list, retry closure and
	// ledger growth.
	if limit := float64(5 * len(pairSQL)); per[0] > limit || per[1] > limit {
		t.Errorf("epoch close allocated %.0f times at 64 groups/epoch and %.0f at 16384; want ≤ %.0f for both",
			per[0], per[1], limit)
	}
}

// TestReadoutRetainedRowsImmutable pins the ResultHandler ownership
// contract: rows a handler keeps by reference — here every query's rows
// of one early epoch, which the composer was also fed and HAVING
// compacted in place — are bit-for-bit what was delivered after 50 later
// epochs have been merged into, read out of and dropped from the same
// recycled tables.
func TestReadoutRetainedRowsImmutable(t *testing.T) {
	sqls := make([]string, len(pairSQL))
	for i, q := range pairSQL {
		sqls[i] = q + " window 2 slide 1 having cnt > 1"
	}
	const keepEpoch = 2
	var kept, snapshot [][]hfta.Row
	f := newEpochFeeder(t, sqls, 300, Options{
		OnWindow: func(attr.Set, hfta.WindowLedger, []hfta.WindowRow) {},
		OnResults: func(_ attr.Set, epoch uint32, rows []hfta.Row, _ Degradation) {
			if epoch != keepEpoch {
				return
			}
			kept = append(kept, rows)
			deep := make([]hfta.Row, len(rows))
			for i, r := range rows {
				deep[i] = hfta.Row{Rel: r.Rel, Epoch: r.Epoch,
					Key: append([]uint32(nil), r.Key...), Aggs: append([]int64(nil), r.Aggs...)}
			}
			snapshot = append(snapshot, deep)
		},
	})
	for f.epoch <= keepEpoch+50 {
		f.feed(t)
	}
	if err := f.e.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(sqls) {
		t.Fatalf("handler kept %d read-outs of epoch %d; want %d", len(kept), keepEpoch, len(sqls))
	}
	for i := range kept {
		if len(kept[i]) != 150 {
			t.Errorf("query %d: %d rows passed HAVING; want the 150 even groups", i, len(kept[i]))
		}
		if !hfta.Equal(kept[i], snapshot[i]) {
			t.Errorf("query %d: rows kept from epoch %d changed after later epochs and Drop", i, keepEpoch)
		}
	}
	if left := f.e.AllResults(); len(left) != 0 {
		t.Errorf("%d rows retained by the engine despite the handler", len(left))
	}
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
			if shared := f.e.sharedReadout(); shared != (f.e.closing != nil) {
				t.Errorf("epoch %d %v: shared read-out %v but e.closing set %v", epoch, rel, shared, !shared)
			}
			got[[2]uint32{uint32(rel), epoch}] = rows
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
