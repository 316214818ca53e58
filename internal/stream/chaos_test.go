package stream

import (
	"errors"
	"testing"
)

func seqRecords(n int, perTick int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Attrs: []uint32{uint32(i)}, Time: uint32(i / perTick)}
	}
	return recs
}

func TestChaosSourceDeterministic(t *testing.T) {
	opts := ChaosOptions{
		Seed:           42,
		RegressEvery:   7,
		RegressBy:      3,
		DuplicateEvery: 11,
		BurstEvery:     13,
		BurstLen:       4,
	}
	collect := func() []Record {
		src := NewChaosSource(NewSliceSource(seqRecords(500, 10)), opts)
		out, err := Collect(src)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("two runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Time != b[i].Time || a[i].Attrs[0] != b[i].Attrs[0] {
			t.Fatalf("record %d differs between identical-seed runs", i)
		}
	}
	// A different seed faults different records.
	opts2 := opts
	opts2.Seed = 43
	c, err := Collect(NewChaosSource(NewSliceSource(seqRecords(500, 10)), opts2))
	if err != nil {
		t.Fatal(err)
	}
	same := len(c) == len(a)
	if same {
		for i := range a {
			if a[i].Time != c[i].Time {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seed change produced an identical fault pattern")
	}
}

func TestChaosSourceFaults(t *testing.T) {
	t.Run("regressions", func(t *testing.T) {
		src := NewChaosSource(NewSliceSource(seqRecords(100, 1)), ChaosOptions{
			RegressEvery: 10, RegressBy: 5,
		})
		out, _ := Collect(src)
		st := src.Stats()
		if st.Regressed == 0 {
			t.Fatal("no regressions injected")
		}
		backward := 0
		for i := 1; i < len(out); i++ {
			if out[i].Time < out[i-1].Time {
				backward++
			}
		}
		if backward == 0 {
			t.Error("regressions injected but timestamps never moved backwards")
		}
	})

	t.Run("duplicates", func(t *testing.T) {
		src := NewChaosSource(NewSliceSource(seqRecords(100, 10)), ChaosOptions{DuplicateEvery: 10})
		out, _ := Collect(src)
		st := src.Stats()
		if st.Duplicated == 0 {
			t.Fatal("no duplicates injected")
		}
		if uint64(len(out)) != 100+st.Duplicated {
			t.Errorf("emitted %d records; want %d", len(out), 100+st.Duplicated)
		}
		dups := 0
		for i := 1; i < len(out); i++ {
			if out[i].Attrs[0] == out[i-1].Attrs[0] && out[i].Time == out[i-1].Time {
				dups++
			}
		}
		if uint64(dups) != st.Duplicated {
			t.Errorf("found %d adjacent duplicates; stats say %d", dups, st.Duplicated)
		}
	})

	t.Run("bursts", func(t *testing.T) {
		src := NewChaosSource(NewSliceSource(seqRecords(100, 1)), ChaosOptions{
			BurstEvery: 20, BurstLen: 5,
		})
		out, _ := Collect(src)
		st := src.Stats()
		if st.Bursty == 0 {
			t.Fatal("no burst records injected")
		}
		// Bursts pin timestamps: some tick must appear ≥ 6 times in a
		// stream that otherwise has one record per tick.
		byTick := map[uint32]int{}
		for _, r := range out {
			byTick[r.Time]++
		}
		max := 0
		for _, n := range byTick {
			if n > max {
				max = n
			}
		}
		if max < 6 {
			t.Errorf("burst pinning produced at most %d records per tick; want ≥ 6", max)
		}
	})

	t.Run("truncation", func(t *testing.T) {
		cut := errors.New("connection lost")
		src := NewChaosSource(NewSliceSource(seqRecords(100, 10)), ChaosOptions{
			TruncateAfter: 37, TruncateErr: cut,
		})
		out, err := Collect(src)
		if len(out) != 37 {
			t.Errorf("truncated stream yielded %d records; want 37", len(out))
		}
		if !errors.Is(err, cut) {
			t.Errorf("Err() = %v; want injected truncation error", err)
		}
		if !src.Stats().Truncated {
			t.Error("stats do not report the truncation")
		}
		// The source stays ended.
		if _, ok := src.Next(); ok {
			t.Error("truncated source yielded another record")
		}
	})
}

func TestClockRegressionGuard(t *testing.T) {
	c := NewClock(10)
	if e, rolled, late := c.Observe(5); e != 0 || rolled || late {
		t.Fatalf("first record: epoch %d rolled %v late %v", e, rolled, late)
	}
	if e, rolled, late := c.Observe(25); e != 2 || !rolled || late {
		t.Fatalf("advance to epoch 2: epoch %d rolled %v late %v", e, rolled, late)
	}
	// A regression into a closed epoch is late and never rolls backwards.
	if e, rolled, late := c.Observe(9); e != 2 || rolled || !late {
		t.Fatalf("regression: epoch %d rolled %v late %v", e, rolled, late)
	}
	if c.Current() != 2 {
		t.Errorf("clock rolled backwards to %d", c.Current())
	}
	if _, _, reg := c.Snapshot(); reg != 1 {
		t.Errorf("regressions = %d; want 1", reg)
	}
	// Within-epoch regressions are harmless and not counted.
	if _, rolled, late := c.Observe(21); rolled || late {
		t.Error("within-epoch regression flagged")
	}
	if _, _, reg := c.Snapshot(); reg != 1 {
		t.Errorf("within-epoch regression counted: %d", reg)
	}
	// Advance keeps working through the legacy two-value form.
	if e, rolled := c.Advance(31); e != 3 || !rolled {
		t.Errorf("Advance(31) = %d, %v", e, rolled)
	}
	if e, rolled := c.Advance(9); e != 3 || rolled {
		t.Errorf("Advance(9) after epoch 3 = %d, %v; regression must clamp", e, rolled)
	}
}

func TestClockSnapshotRoundTrip(t *testing.T) {
	c := NewClock(10)
	c.Observe(5)
	c.Observe(25)
	c.Observe(3)
	started, cur, regressed := c.Snapshot()
	c2 := NewClock(10)
	c2.RestoreSnapshot(started, cur, regressed)
	if e, rolled, late := c2.Observe(9); e != 2 || rolled || !late {
		t.Errorf("restored clock: Observe(9) = %d, %v, %v", e, rolled, late)
	}
	if _, _, reg := c2.Snapshot(); reg != 2 {
		t.Errorf("restored regressions = %d; want 2", reg)
	}
}

func TestSkipSource(t *testing.T) {
	src := NewSkipSource(NewSliceSource(seqRecords(10, 1)), 4)
	out, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 6 || out[0].Attrs[0] != 4 {
		t.Errorf("skip(4) yielded %d records starting at %v", len(out), out[0].Attrs)
	}
	// Skipping past the end is empty, not an error.
	empty := NewSkipSource(NewSliceSource(seqRecords(3, 1)), 10)
	if out, err := Collect(empty); err != nil || len(out) != 0 {
		t.Errorf("skip past end: %d records, err %v", len(out), err)
	}
}
