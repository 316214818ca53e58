package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"testing"

	"repro/internal/hfta"
	"repro/internal/lfta"
	"repro/internal/stream"
)

// Equivalence and crash-recovery properties of the sharded engine: with
// shedding disabled, any shard count computes exactly the single engine's
// (and the oracle's) answers; with a seeded UniformShed, a killed run
// restored from its checkpoint replays byte-identically.

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

// TestShardedKillRestoreV2 is the acceptance test of the checkpoint's shed
// and shard sections (named for the format version that introduced them):
// a sharded run shedding with a seeded, stateful UniformShed policy is
// killed mid-stream and restored from its checkpoint; the union of the
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
			if err := feedAll(e1, recs[:crashAt]); err != nil {
				t.Fatal(err)
			}
			// No Finish: the process is gone.

			// Resumed run from the checkpoint.
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

// TestCheckpointShardCountMismatch: an image written by an n-shard
// engine must not restore into a deployment with a different shard count
// — the per-shard state would be meaningless.
func TestCheckpointShardCountMismatch(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	opts := Options{M: 8000, Seed: 3, Shards: 4}
	e1, err := New(pairSQL, groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedAll(e1, recs[:17000]); err != nil {
		t.Fatal(err)
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

// TestShardedKillRestoreHistory: killed and restored from its checkpoint
// log, a sharded engine — with and without a budget — ends with the
// uninterrupted run's global and per-shard epoch histories, each per-shard
// row summing to its epoch's global ledger, and both histories hash to the
// values the separate global and per-shard histories produced before they
// became one columnar history.
func TestShardedKillRestoreHistory(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	pinned := map[string]uint64{}
	for _, n := range []int{2, 4, 8} {
		for _, budget := range []float64{0, 600} {
			name := fmt.Sprintf("shards=%d/budget=%v", n, budget)
			t.Run(name, func(t *testing.T) {
				mkOpts := func() Options {
					o := Options{M: 8000, Seed: 3, Shards: n}
					if budget > 0 {
						o.Budget, o.Shed = budget, NewUniformShed(0.5, 99)
					}
					return o
				}
				ref, err := New(pairSQL, groups, mkOpts())
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.Run(stream.NewSliceSource(recs)); err != nil {
					t.Fatal(err)
				}
				copts := mkOpts()
				copts.CheckpointPath = filepath.Join(t.TempDir(), "ckpt")
				e1, err := New(pairSQL, groups, copts)
				if err != nil {
					t.Fatal(err)
				}
				if err := feedAll(e1, recs[:17000]); err != nil {
					t.Fatal(err)
				}
				e2, err := New(pairSQL, groups, mkOpts())
				if err != nil {
					t.Fatal(err)
				}
				consumed, err := e2.RestoreCheckpointFile(copts.CheckpointPath)
				if err != nil {
					t.Fatal(err)
				}
				if err := e2.Run(stream.NewSkipSource(stream.NewSliceSource(recs), consumed)); err != nil {
					t.Fatal(err)
				}
				want := fmt.Sprint(ref.EpochDegradations(), ref.ShardEpochDegradations())
				got := fmt.Sprint(e2.EpochDegradations(), e2.ShardEpochDegradations())
				if got != want {
					t.Fatal("resumed epoch histories differ from the uninterrupted run's")
				}
				assertShardLedgers(t, e2)
				h := fnv.New64a()
				h.Write([]byte(got))
				pinned[name] = h.Sum64()
			})
		}
	}
	want := map[string]uint64{
		"shards=2/budget=0":   0x5c52ca88c2db3b5f,
		"shards=2/budget=600": 0xd4f1033f88a0806a,
		"shards=4/budget=0":   0x93d9e21abc59b8a3,
		"shards=4/budget=600": 0xa07729eccd3fb5a7,
		"shards=8/budget=0":   0x4ee470bc7aa4b463,
		"shards=8/budget=600": 0xd2d8540e2c34a83e,
	}
	for name, sum := range pinned {
		if w, ok := want[name]; !ok || w != sum {
			t.Errorf("%s: history hash %#x, pinned %#x", name, sum, w)
		}
	}
}

// TestEpochHistoryWidens: the history keeps ledgers in 32 bits until a
// counter needs more, then converts every row, so each reads back exactly.
func TestEpochHistoryWidens(t *testing.T) {
	h := epochHistory{n: 2}
	rows := [][]Degradation{
		{{Offered: 5, Processed: 3, Dropped: 1, Late: 1}, {Offered: 7, Processed: 7}},
		{{Offered: 1 << 33, Processed: 1<<33 - 2, Late: 2}, {Offered: 1}},
		{{Offered: 4, Dropped: 4}, {Offered: 1 << 40, Processed: 1 << 40}},
	}
	for i, row := range rows {
		h.add(uint32(10+i), row)
	}
	if h.wide == nil {
		t.Fatal("a counter over 32 bits did not widen the history")
	}
	for i, row := range rows {
		for s, want := range row {
			want.Epoch = uint32(10 + i)
			if got := h.shard(i, s); got != want {
				t.Errorf("row %d shard %d: %+v, want %+v", i, s, got, want)
			}
		}
	}
}
