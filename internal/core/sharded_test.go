package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/hfta"
	"repro/internal/lfta"
	"repro/internal/stream"
)

// Equivalence and crash-recovery properties of the sharded engine: with
// shedding disabled, any shard count computes exactly the single engine's
// (and the oracle's) answers; with a seeded UniformShed, a killed run
// restored from a v2 checkpoint replays byte-identically.

// TestShardedEquivalence: with shedding disabled, the sharded engine at
// n ∈ {1,2,4,8} emits results identical to the single engine and to the
// reference oracle, and processes every record.
func TestShardedEquivalence(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	oracle := hfta.Reference(recs, chaosQueries, lfta.CountStar, 10)

	single, err := New(pairSQL, groups, Options{M: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	want := single.AllResults()
	if !hfta.Equal(want, oracle) {
		t.Fatal("single engine differs from the oracle")
	}

	for _, n := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			e, err := New(pairSQL, groups, Options{M: 8000, Seed: 3, Shards: n})
			if err != nil {
				t.Fatal(err)
			}
			if got := e.NumShards(); got != n && !(n <= 1 && got == 1) {
				t.Fatalf("NumShards = %d; want %d", got, n)
			}
			if err := e.Run(stream.NewSliceSource(recs)); err != nil {
				t.Fatal(err)
			}
			if !hfta.Equal(e.AllResults(), want) {
				t.Error("sharded results differ from the single engine")
			}
			if !hfta.Equal(e.AllResults(), oracle) {
				t.Error("sharded results differ from the oracle")
			}
			d := e.Stats().Degradation
			if d.Processed != uint64(len(recs)) || d.Dropped != 0 || d.Late != 0 {
				t.Errorf("shedding-disabled run degraded: %+v", d)
			}
			if n > 1 {
				assertShardLedgers(t, e)
			}
		})
	}
}

// TestShardedAdaptiveEquivalence: adaptive re-planning swaps runtimes at
// epoch boundaries; the sharded engine must stay exact through the swaps.
func TestShardedAdaptiveEquivalence(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	oracle := hfta.Reference(recs, chaosQueries, lfta.CountStar, 10)
	e, err := New(pairSQL, groups, Options{
		M: 8000, Seed: 3, Shards: 4,
		Adapt: AdaptOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	if !hfta.Equal(e.AllResults(), oracle) {
		t.Error("adaptive sharded run differs from the oracle")
	}
}

// TestShardedKillRestoreV2 is the v2-checkpoint acceptance test: a
// sharded run shedding with a seeded, stateful UniformShed policy is
// killed mid-stream and restored from its v2 checkpoint; the union of the
// crashed and resumed runs' emissions must be byte-identical to the
// uninterrupted run — which requires the checkpoint to carry the policy's
// EWMA rate and RNG position plus the per-shard budget-split weights.
func TestShardedKillRestoreV2(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	for _, n := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			mkOpts := func() Options {
				return Options{
					M: 8000, Seed: 3, Shards: n,
					Budget: 600, Shed: NewUniformShed(0.5, 99),
				}
			}

			// Uninterrupted reference run.
			wantEmit := emissionMap{}
			ropts := mkOpts()
			ropts.OnResults = collectEmissions(t, wantEmit)
			ref, err := New(pairSQL, groups, ropts)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Run(stream.NewSliceSource(recs)); err != nil {
				t.Fatal(err)
			}
			if ref.Stats().Degradation.Dropped == 0 {
				t.Fatal("budget never forced shedding; the test is vacuous")
			}

			// Crashed run: checkpoint at every boundary, die mid-epoch.
			ckpt := filepath.Join(t.TempDir(), "sharded.ckpt")
			copts := mkOpts()
			copts.CheckpointPath = ckpt
			crashEmit := emissionMap{}
			copts.OnResults = collectEmissions(t, crashEmit)
			e1, err := New(pairSQL, groups, copts)
			if err != nil {
				t.Fatal(err)
			}
			const crashAt = 17000
			for i := 0; i < crashAt; i++ {
				if err := e1.Process(recs[i]); err != nil {
					t.Fatal(err)
				}
			}
			// No Finish: the process is gone.

			// Resumed run from the v2 checkpoint.
			resumeEmit := emissionMap{}
			popts := mkOpts()
			popts.OnResults = collectEmissions(t, resumeEmit)
			e2, err := New(pairSQL, groups, popts)
			if err != nil {
				t.Fatal(err)
			}
			consumed, err := e2.RestoreCheckpointFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if consumed == 0 || consumed > crashAt {
				t.Fatalf("restored position %d out of range (0, %d]", consumed, crashAt)
			}
			if err := e2.Run(stream.NewSkipSource(stream.NewSliceSource(recs), consumed)); err != nil {
				t.Fatal(err)
			}

			got := emissionMap{}
			for k, v := range crashEmit {
				got[k] = v
			}
			for k, v := range resumeEmit {
				if prev, dup := got[k]; dup && prev != v {
					t.Errorf("epoch %d of %v emitted differently by crashed and resumed runs", k.epoch, k.rel)
				}
				got[k] = v
			}
			if len(got) != len(wantEmit) {
				t.Fatalf("crash+resume emitted %d (query, epoch) results; uninterrupted run emitted %d",
					len(got), len(wantEmit))
			}
			for k, want := range wantEmit {
				if got[k] != want {
					t.Errorf("epoch %d of %v differs from the uninterrupted run", k.epoch, k.rel)
				}
			}

			// The resumed ledgers — global and per-shard — cover the whole
			// stream and agree with the uninterrupted run exactly.
			assertLedger(t, e2, uint64(len(recs)))
			dRef, dGot := ref.Stats().Degradation, e2.Stats().Degradation
			if dRef != dGot {
				t.Errorf("resumed cumulative ledger %+v; uninterrupted %+v", dGot, dRef)
			}
			if n > 1 {
				assertShardLedgers(t, e2)
				refShards, gotShards := ref.ShardDegradations(), e2.ShardDegradations()
				for i := range refShards {
					if refShards[i] != gotShards[i] {
						t.Errorf("shard %d resumed ledger %+v; uninterrupted %+v", i, gotShards[i], refShards[i])
					}
				}
				refPos, gotPos := ref.ShardPositions(), e2.ShardPositions()
				for i := range refPos {
					if refPos[i] != gotPos[i] {
						t.Errorf("shard %d resumed position %d; uninterrupted %d", i, gotPos[i], refPos[i])
					}
				}
			}
		})
	}
}

// TestCheckpointV1ReadCompat: a version-1 image (the pre-v2 format) still
// restores — into an unsharded engine and into a sharded one — with the
// v2-only state simply starting fresh.
func TestCheckpointV1ReadCompat(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	opts := Options{M: 8000, Seed: 3}

	// Write the v1 image at a real epoch boundary, replicating the
	// sequence the engine's own CheckpointPath write runs inside Process:
	// roll the clock, close the epoch (flushing the LFTA), write, then
	// feed the rolling record — which the checkpoint does not count, so
	// the restore replays it.
	var v1 bytes.Buffer
	e1, err := New(pairSQL, groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	const crashAt = 17000
	for i := 0; i < crashAt; i++ {
		rec := recs[i]
		if e1.specs[0].MatchWhere(rec.Attrs) && e1.clock.Started() &&
			rec.Time/e1.epochLen > e1.clock.Current() {
			_ = e1.flushStage() // staged records belong to the epoch closed by hand below
			if _, rolled, _ := e1.clock.Observe(rec.Time); rolled {
				if err := e1.endEpoch(); err != nil {
					t.Fatal(err)
				}
				v1.Reset()
				if err := e1.checkpointVersion(&v1, ckptVersionV1); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e1.Process(rec); err != nil {
			t.Fatal(err)
		}
	}
	if v1.Len() == 0 {
		t.Fatal("no epoch boundary crossed before the crash point")
	}
	if v1.Bytes()[4] != ckptVersionV1 {
		t.Fatalf("v1 writer stamped version %d", v1.Bytes()[4])
	}

	// Uninterrupted reference.
	ref, err := New(pairSQL, groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	want := ref.AllResults()

	t.Run("unsharded", func(t *testing.T) {
		e2, err := New(pairSQL, groups, opts)
		if err != nil {
			t.Fatal(err)
		}
		consumed, err := e2.Restore(bytes.NewReader(v1.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := e2.Run(stream.NewSkipSource(stream.NewSliceSource(recs), consumed)); err != nil {
			t.Fatal(err)
		}
		if !hfta.Equal(e2.AllResults(), want) {
			t.Error("v1 restore differs from the uninterrupted run")
		}
	})

	t.Run("into sharded engine", func(t *testing.T) {
		// Read-compat extends to a sharded deployment: a v1 image has no
		// per-shard state, so the shard ledgers start fresh, but results
		// stay exact.
		sopts := opts
		sopts.Shards = 4
		e2, err := New(pairSQL, groups, sopts)
		if err != nil {
			t.Fatal(err)
		}
		consumed, err := e2.Restore(bytes.NewReader(v1.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := e2.Run(stream.NewSkipSource(stream.NewSliceSource(recs), consumed)); err != nil {
			t.Fatal(err)
		}
		if !hfta.Equal(e2.AllResults(), want) {
			t.Error("v1 restore into a sharded engine differs from the uninterrupted run")
		}
	})
}

// TestCheckpointShardCountMismatch: a v2 image written by an n-shard
// engine must not restore into a deployment with a different shard count
// — the per-shard state would be meaningless.
func TestCheckpointShardCountMismatch(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	opts := Options{M: 8000, Seed: 3, Shards: 4}
	e1, err := New(pairSQL, groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 17000; i++ {
		if err := e1.Process(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := e1.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 2} {
		o := Options{M: 8000, Seed: 3, Shards: n}
		e2, err := New(pairSQL, groups, o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e2.Restore(bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("4-shard checkpoint restored into %d-shard engine", n)
		}
	}
}
