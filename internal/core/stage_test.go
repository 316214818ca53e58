package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/attr"
	"repro/internal/hfta"
	"repro/internal/stream"
)

// What the scalar feed promises now that Process stages records *before*
// admission: an epoch closes inside the Process call of the record that ends
// it, every accessor sees every record Process has returned for, and a flush
// that closes an epoch is not re-entered by what the close calls. A naive
// stager — flush at stageRun only, no flush before reads — fails each test.

// firstOfNextEpoch returns the index of the first record whose epoch differs
// from record 0's (epoch length 10, as pairSQL declares).
func firstOfNextEpoch(t *testing.T, recs []stream.Record) int {
	t.Helper()
	for i, r := range recs {
		if r.Time/10 != recs[0].Time/10 {
			return i
		}
	}
	t.Fatal("workload never leaves its first epoch")
	return 0
}

// TestProcessRollClosesEpochInCall: with OnResults and CheckpointPath set,
// when Process(first record of epoch N+1) returns, epoch N's handler has run
// and boundary N's image is on disk — the image of an engine that has
// consumed exactly the records before that one; and when the checkpoint
// cannot be written, that same call returns the error.
func TestProcessRollClosesEpochInCall(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	roll := firstOfNextEpoch(t, recs)
	if roll%stageRun == 0 {
		t.Fatalf("epoch rolls at record %d, where a full stage flushes anyway; the test is vacuous", roll)
	}

	path := filepath.Join(t.TempDir(), "roll.ckpt")
	emitted := 0
	e, err := New(pairSQL, groups, Options{M: 8000, Seed: 3, CheckpointPath: path,
		OnResults: func(attr.Set, uint32, []hfta.Row, Degradation) { emitted++ }})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < roll; i++ {
		if err := e.Process(recs[i]); err != nil {
			t.Fatal(err)
		}
		if emitted != 0 {
			t.Fatalf("record %d of the first epoch emitted results", i)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("checkpoint present before any boundary (stat: %v)", err)
	}
	if err := e.Process(recs[roll]); err != nil {
		t.Fatal(err)
	}
	if emitted != len(pairSQL) {
		t.Errorf("after Process(first record of the next epoch): %d handler calls; want %d", emitted, len(pairSQL))
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("boundary image not on disk when Process returned: %v", err)
	}
	fresh, err := New(pairSQL, groups, Options{M: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	consumed, err := fresh.Restore(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if consumed != uint64(roll) || fresh.Stats().Epochs != 1 {
		t.Errorf("boundary image: position %d after %d epochs; want %d after 1", consumed, fresh.Stats().Epochs, roll)
	}

	bad, err := New(pairSQL, groups, Options{M: 8000, Seed: 3,
		CheckpointPath: filepath.Join(t.TempDir(), "no-such-dir", "roll.ckpt")})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < roll; i++ {
		if err := bad.Process(recs[i]); err != nil {
			t.Fatalf("record %d, before any boundary: %v", i, err)
		}
	}
	if err := bad.Process(recs[roll]); err == nil || !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Process(rolling record) with an unwritable checkpoint path returned %v; want the write error", err)
	}
}

// TestProcessAccessorsSeeStagedRecords: after k < stageRun Process calls in
// one open epoch, the stream position, the ledger and — on a sharded engine —
// the per-shard ledgers and positions all account for k records.
func TestProcessAccessorsSeeStagedRecords(t *testing.T) {
	recs, groups := testWorkload(t, 2000)
	const k = 300
	if recs[k-1].Time/10 != recs[0].Time/10 || k >= stageRun {
		t.Fatal("the first k records must share one epoch and fit in the stage")
	}
	for _, shards := range []int{0, 2} {
		for _, budget := range []float64{0, 15} {
			t.Run(fmt.Sprintf("shards=%d/budget=%v", shards, budget), func(t *testing.T) {
				reads := map[string]func(e *Engine) uint64{
					"Consumed":    func(e *Engine) uint64 { return e.Consumed() },
					"Stats":       func(e *Engine) uint64 { return e.Stats().Degradation.Offered },
					"Ops":         func(e *Engine) uint64 { return e.Ops().Records + e.Stats().Degradation.Dropped },
					"Diagnostics": func(e *Engine) uint64 { d, _ := e.Diagnostics(); return d.Total.Offered },
					"ShardDegradations": func(e *Engine) uint64 {
						var sum uint64
						for _, d := range e.ShardDegradations() {
							sum += d.Offered
						}
						return sum
					},
					"ShardPositions": func(e *Engine) uint64 {
						var sum uint64
						for _, p := range e.ShardPositions() {
							sum += p
						}
						return sum
					},
				}
				for name, read := range reads {
					e, err := New(pairSQL, groups, Options{M: 8000, Seed: 3, Shards: shards, Budget: budget})
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range recs[:k] {
						if err := e.Process(r); err != nil {
							t.Fatal(err)
						}
					}
					want := uint64(k)
					if shards <= 1 && (name == "ShardDegradations" || name == "ShardPositions") {
						want = 0 // nil when unsharded
					}
					// Each accessor is the first read of its own engine: it
					// must flush for itself.
					if got := read(e); got != want {
						t.Errorf("%s after %d Process calls accounts for %d records; want %d", name, k, got, want)
					}
					if d := e.Stats().Degradation; budget > 0 && d.Dropped == 0 {
						t.Errorf("ledger %+v: the budget shed nothing, the budgeted leg is vacuous", d)
					}
				}
			})
		}
	}
}

// TestProcessRollHandlerReadsEngine: a result handler that reads Stats and
// Consumed while Process is closing an epoch sees the position strictly
// before the rolling record, once — the reads neither re-enter the flush
// that is running nor admit anything twice.
func TestProcessRollHandlerReadsEngine(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	roll := firstOfNextEpoch(t, recs)
	var e *Engine
	var seen []uint64
	e, err := New(pairSQL, groups, Options{M: 8000, Seed: 3, Shards: 2,
		OnResults: func(_ attr.Set, _ uint32, _ []hfta.Row, closed Degradation) {
			st := e.Stats()
			if st.Degradation.Offered != closed.Offered || e.Consumed() != closed.Offered {
				t.Errorf("inside the roll: ledger %+v, position %d; the closed epoch offered %d",
					st.Degradation, e.Consumed(), closed.Offered)
			}
			seen = append(seen, e.Consumed())
		}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[:roll+200] {
		if err := e.Process(r); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != len(pairSQL) {
		t.Fatalf("%d handler calls for one closed epoch; want %d", len(seen), len(pairSQL))
	}
	for _, pos := range seen {
		if pos != uint64(roll) {
			t.Errorf("handler read position %d; want %d, strictly before the rolling record", pos, roll)
		}
	}
	if got := e.Consumed(); got != uint64(roll+200) {
		t.Errorf("consumed %d records after the roll; want %d", got, roll+200)
	}
	assertLedger(t, e, uint64(roll+200))
	if got := e.Ops().Records; got != uint64(roll+200) {
		t.Errorf("the LFTA saw %d records; want %d, each exactly once", got, roll+200)
	}
}

// TestRestoreRefusesStagedEngine: Restore wants a fresh engine, and one
// holding staged records is not — its stage would be admitted on top of the
// restored position.
func TestRestoreRefusesStagedEngine(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	src, err := New(pairSQL, groups, Options{M: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	roll := firstOfNextEpoch(t, recs)
	var img bytes.Buffer
	for _, r := range recs[:roll+1] {
		if err := src.Process(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Checkpoint(&img); err != nil {
		t.Fatal(err)
	}

	fresh, err := New(pairSQL, groups, Options{M: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Restore(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatalf("a fresh engine refuses the image: %v", err)
	}

	// Through Process the first record is always admitted at once (the clock
	// has not started), which the position check already refuses; the stage
	// check guards the state only a white-box caller can build.
	staged, err := New(pairSQL, groups, Options{M: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	staged.stage.Reset(len(recs[0].Attrs))
	staged.stage.Append(recs[0].Attrs, recs[0].Time)
	if _, err := staged.Restore(bytes.NewReader(img.Bytes())); err == nil {
		t.Error("Restore accepted an engine holding staged records")
	}
}
