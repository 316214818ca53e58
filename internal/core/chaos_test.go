package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/hfta"
	"repro/internal/lfta"
	"repro/internal/stream"
)

// The chaos suite: every injected fault — timestamp regressions,
// duplicates, bursts, sink failures, truncation, and a mid-epoch
// kill+restore — must leave the engine with exact answers over the
// records it processed and a degradation ledger in which
// Offered == Processed + Dropped + Late holds exactly.

var chaosQueries = []attr.Set{
	attr.MustParseSet("AB"), attr.MustParseSet("BC"),
	attr.MustParseSet("BD"), attr.MustParseSet("CD"),
}

// assertLedger checks the accounting identity on every closed epoch and
// on the cumulative total.
func assertLedger(t *testing.T, e *Engine, wantOffered uint64) {
	t.Helper()
	for _, d := range e.EpochDegradations() {
		if d.Offered != d.Processed+d.Dropped+d.Late {
			t.Errorf("epoch %d ledger broken: %+v", d.Epoch, d)
		}
	}
	total := e.Stats().Degradation
	if total.Offered != total.Processed+total.Dropped+total.Late {
		t.Errorf("cumulative ledger broken: %+v", total)
	}
	if total.Offered != wantOffered {
		t.Errorf("offered %d records; want %d", total.Offered, wantOffered)
	}
}

// TestChaosRegressions: an unordered stream with cross-epoch timestamp
// regressions degrades to dropping the late records — counted, with the
// on-time remainder answered exactly.
func TestChaosRegressions(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	src := stream.NewChaosSource(stream.NewSliceSource(recs), stream.ChaosOptions{
		Seed: 11, RegressEvery: 40, RegressBy: 15,
	})
	chaotic, err := stream.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the engine's lateness rule to split the stream into the
	// on-time records (answered exactly) and the late ones (dropped).
	clock := stream.NewClock(10)
	var onTime []stream.Record
	late := uint64(0)
	for _, r := range chaotic {
		if _, _, isLate := clock.Observe(r.Time); isLate {
			late++
		} else {
			onTime = append(onTime, r)
		}
	}
	if late == 0 {
		t.Fatal("chaos injected no cross-epoch regressions; tune RegressBy")
	}

	e, err := New(pairSQL, groups, Options{M: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.NewSliceSource(chaotic)); err != nil {
		t.Fatal(err)
	}
	assertLedger(t, e, uint64(len(chaotic)))
	d := e.Stats().Degradation
	if d.Late != late {
		t.Errorf("late = %d; replica says %d", d.Late, late)
	}
	want := hfta.Reference(onTime, chaosQueries, lfta.CountStar, 10)
	if !hfta.Equal(e.AllResults(), want) {
		t.Error("on-time records not answered exactly under regressions")
	}
}

// TestChaosDuplicates: at-least-once delivery upstream means duplicates
// are real input — the engine counts them like any record, exactly.
func TestChaosDuplicates(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	src := stream.NewChaosSource(stream.NewSliceSource(recs), stream.ChaosOptions{
		Seed: 11, DuplicateEvery: 25,
	})
	chaotic, err := stream.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(chaotic)) == uint64(len(recs)) {
		t.Fatal("no duplicates injected")
	}
	e, err := New(pairSQL, groups, Options{M: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.NewSliceSource(chaotic)); err != nil {
		t.Fatal(err)
	}
	assertLedger(t, e, uint64(len(chaotic)))
	if d := e.Stats().Degradation; d.Processed != uint64(len(chaotic)) {
		t.Errorf("processed %d of %d; duplicates are not overload", d.Processed, len(chaotic))
	}
	want := hfta.Reference(chaotic, chaosQueries, lfta.CountStar, 10)
	if !hfta.Equal(e.AllResults(), want) {
		t.Error("duplicated stream not answered exactly")
	}
}

// TestChaosBurstsUnderBudget: a line-rate burst flooding single time
// units forces the overload control to shed; the ledger stays exact and
// each query's per-epoch counts cover exactly the processed records.
func TestChaosBurstsUnderBudget(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	src := stream.NewChaosSource(stream.NewSliceSource(recs), stream.ChaosOptions{
		Seed: 11, BurstEvery: 100, BurstLen: 60,
	})
	chaotic, err := stream.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[epochKey]uint64{}
	e, err := New(pairSQL, groups, Options{
		M:      8000,
		Seed:   3,
		Budget: 900,
		OnResults: func(rel attr.Set, epoch uint32, rows []hfta.Row, deg Degradation) {
			for i := range rows {
				sums[epochKey{rel, epoch}] += uint64(rows[i].Aggs[0])
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.NewSliceSource(chaotic)); err != nil {
		t.Fatal(err)
	}
	assertLedger(t, e, uint64(len(chaotic)))
	if e.Stats().Degradation.Dropped == 0 {
		t.Error("bursts never exhausted the budget")
	}
	for _, d := range e.EpochDegradations() {
		for _, q := range chaosQueries {
			if got := sums[epochKey{q, d.Epoch}]; got != d.Processed {
				t.Errorf("epoch %d query %v counted %d; processed %d", d.Epoch, q, got, d.Processed)
			}
		}
	}
}

// TestChaosSinkFailures: lost LFTA→HFTA deliveries degrade the answers
// but never the arithmetic — per query, delivered mass plus lost mass
// equals the processed record count. The faults sit in front of MergeRun,
// the transfer path every deployment runs, and a lost delivery is one
// sealed run of one relation.
func TestChaosSinkFailures(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	faults := lfta.NewFaultySink(lfta.SinkFaults{FailEvery: 7})
	e, err := New(pairSQL, groups, Options{
		M:           8000,
		Seed:        3,
		WrapRunSink: faults.WrapRun,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	assertLedger(t, e, uint64(len(recs)))
	if faults.Failures() == 0 {
		t.Fatal("sink fault injector never fired")
	}
	delivered := map[attr.Set]int64{}
	for _, r := range e.AllResults() {
		delivered[r.Rel] += r.Aggs[0]
	}
	for _, q := range chaosQueries {
		_, lost := faults.Lost(q)
		var lostMass int64
		if len(lost) > 0 {
			lostMass = lost[0]
		}
		if got := delivered[q] + lostMass; got != int64(len(recs)) {
			t.Errorf("query %v: delivered %d + lost %d != %d processed",
				q, delivered[q], lostMass, len(recs))
		}
	}
}

// TestChaosTruncation: a mid-epoch connection loss surfaces the stream
// error from Run; the records before the cut are still fully accounted
// and answerable after a manual Finish.
func TestChaosTruncation(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	cut := errors.New("upstream died")
	src := stream.NewChaosSource(stream.NewSliceSource(recs), stream.ChaosOptions{
		TruncateAfter: 17000, TruncateErr: cut,
	})
	e, err := New(pairSQL, groups, Options{M: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(src); !errors.Is(err, cut) {
		t.Fatalf("Run returned %v; want the truncation error", err)
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	assertLedger(t, e, 17000)
	want := hfta.Reference(recs[:17000], chaosQueries, lfta.CountStar, 10)
	if !hfta.Equal(e.AllResults(), want) {
		t.Error("pre-truncation records not answered exactly")
	}
}

// renderRows serializes emitted rows order-insensitively so two runs can
// be compared byte for byte.
func renderRows(rows []hfta.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = fmt.Sprintf("%v|%d|%v|%v", r.Rel, r.Epoch, r.Key, r.Aggs)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// emissionMap collects every OnResults emission keyed by (query, epoch).
type emissionMap map[epochKey]string

func collectEmissions(t *testing.T, dst emissionMap) ResultHandler {
	t.Helper()
	return func(rel attr.Set, epoch uint32, rows []hfta.Row, deg Degradation) {
		k := epochKey{rel, epoch}
		if _, dup := dst[k]; dup {
			t.Errorf("epoch %d of %v emitted twice in one run", epoch, rel)
		}
		dst[k] = renderRows(rows)
	}
}

// TestChaosKillRestore is the acceptance crash test: kill the engine
// mid-epoch, restore a fresh one from its checkpoint, replay from the
// recorded stream position — the union of emissions from the crashed and
// resumed runs must be byte-identical to an uninterrupted run, for every
// closed epoch. DropTail shedding under budget is deterministic and
// stateless, so the identity holds even while the engine is overloaded.
func TestChaosKillRestore(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	for _, budget := range []float64{0, 900} {
		t.Run(fmt.Sprintf("budget=%v", budget), func(t *testing.T) {
			opts := Options{M: 8000, Seed: 3, Budget: budget}

			// Uninterrupted reference run.
			wantEmit := emissionMap{}
			ropts := opts
			ropts.OnResults = collectEmissions(t, wantEmit)
			ref, err := New(pairSQL, groups, ropts)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Run(stream.NewSliceSource(recs)); err != nil {
				t.Fatal(err)
			}

			// Crashed run: checkpoint at every boundary, die mid-epoch.
			ckpt := filepath.Join(t.TempDir(), "chaos.ckpt")
			copts := opts
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
			popts := opts
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

			// Merge: the crashed run owns every epoch it emitted before
			// dying; the resumed run owns the rest. Together they must
			// reproduce the uninterrupted run exactly.
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

			// The resumed ledger covers the whole stream: closed-epoch
			// history restored from the checkpoint plus the replayed tail.
			assertLedger(t, e2, uint64(len(recs)))
		})
	}
}

// assertShardLedgers checks the sharded accounting invariants: every
// per-shard ledger satisfies the identity on its own, and the per-shard
// ledgers sum exactly to the global ledger — per closed epoch and
// cumulatively.
func assertShardLedgers(t *testing.T, e *Engine) {
	t.Helper()
	epochs := e.EpochDegradations()
	shardEpochs := e.ShardEpochDegradations()
	if len(shardEpochs) != len(epochs) {
		t.Fatalf("per-shard history covers %d epochs; global history %d", len(shardEpochs), len(epochs))
	}
	for i, global := range epochs {
		var sum Degradation
		for _, sd := range shardEpochs[i] {
			if sd.Offered != sd.Processed+sd.Dropped+sd.Late {
				t.Errorf("epoch %d shard ledger broken: %+v", global.Epoch, sd)
			}
			sum.add(sd)
		}
		if sum.Offered != global.Offered || sum.Processed != global.Processed ||
			sum.Dropped != global.Dropped || sum.Late != global.Late {
			t.Errorf("epoch %d: shard ledgers sum to %+v; global ledger %+v", global.Epoch, sum, global)
		}
	}
	var cumSum Degradation
	for _, sd := range e.ShardDegradations() {
		if sd.Offered != sd.Processed+sd.Dropped+sd.Late {
			t.Errorf("cumulative shard ledger broken: %+v", sd)
		}
		cumSum.add(sd)
	}
	total := e.Stats().Degradation
	if cumSum.Offered != total.Offered || cumSum.Processed != total.Processed ||
		cumSum.Dropped != total.Dropped || cumSum.Late != total.Late {
		t.Errorf("cumulative shard ledgers sum to %+v; global %+v", cumSum, total)
	}
}

// shedPolicyFor builds a fresh policy instance per engine: stateful
// policies (UniformShed) must never be shared between runs.
func shedPolicyFor(name string) ShedPolicy {
	if name == "uniform" {
		return NewUniformShed(0.5, 99)
	}
	return DropTail{}
}

// TestChaosShardedLedger extends the chaos suite to the sharded engine:
// under injected faults (regressions, duplicates, bursts) and overload
// shedding, at every shard count, the per-shard ledgers must sum to the
// global ledger and the identity must hold on every epoch.
func TestChaosShardedLedger(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	src := stream.NewChaosSource(stream.NewSliceSource(recs), stream.ChaosOptions{
		Seed:         5,
		RegressEvery: 90, RegressBy: 15,
		DuplicateEvery: 70,
		BurstEvery:     150, BurstLen: 40,
	})
	chaotic, err := stream.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"droptail", "uniform"} {
		for _, n := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", policy, n), func(t *testing.T) {
				e, err := New(pairSQL, groups, Options{
					M: 8000, Seed: 3, Shards: n,
					Budget: 600, Shed: shedPolicyFor(policy),
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Run(stream.NewSliceSource(chaotic)); err != nil {
					t.Fatal(err)
				}
				assertLedger(t, e, uint64(len(chaotic)))
				d := e.Stats().Degradation
				if d.Dropped == 0 || d.Late == 0 {
					t.Errorf("chaos run saw no shedding (%d) or no late records (%d)", d.Dropped, d.Late)
				}
				if n > 1 {
					assertShardLedgers(t, e)
					var routed uint64
					for _, p := range e.ShardPositions() {
						routed += p
					}
					if routed != uint64(len(chaotic)) {
						t.Errorf("shard positions sum to %d; %d records offered", routed, len(chaotic))
					}
				}
			})
		}
	}
}

// TestChaosEverything turns every fault on at once — regressions,
// duplicates, bursts, overload shedding, sink failures, and a mid-epoch
// kill+restore — and checks the one invariant that must survive all of
// it: the degradation ledger accounts for every record exactly once.
func TestChaosEverything(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	src := stream.NewChaosSource(stream.NewSliceSource(recs), stream.ChaosOptions{
		Seed:         5,
		RegressEvery: 90, RegressBy: 15,
		DuplicateEvery: 70,
		BurstEvery:     150, BurstLen: 40,
	})
	chaotic, err := stream.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	faults := lfta.NewFaultySink(lfta.SinkFaults{FailEvery: 11})
	ckpt := filepath.Join(t.TempDir(), "everything.ckpt")
	opts := Options{
		M:           8000,
		Seed:        3,
		Budget:      900,
		WrapRunSink: faults.WrapRun,
	}
	copts := opts
	copts.CheckpointPath = ckpt

	e1, err := New(pairSQL, groups, copts)
	if err != nil {
		t.Fatal(err)
	}
	crashAt := len(chaotic) * 2 / 3
	if err := feedAll(e1, chaotic[:crashAt]); err != nil {
		t.Fatal(err)
	}

	e2, err := New(pairSQL, groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	consumed, err := e2.RestoreCheckpointFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Run(stream.NewSkipSource(stream.NewSliceSource(chaotic), consumed)); err != nil {
		t.Fatal(err)
	}
	assertLedger(t, e2, uint64(len(chaotic)))
	d := e2.Stats().Degradation
	if d.Dropped == 0 || d.Late == 0 {
		t.Errorf("chaos run saw no shedding (%d) or no late records (%d); faults not exercised", d.Dropped, d.Late)
	}
	if faults.Failures() == 0 {
		t.Error("sink faults never fired")
	}
}
