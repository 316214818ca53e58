package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/backoff"
	"repro/internal/epochstore"
	"repro/internal/hfta"
	"repro/internal/stream"
)

// The durability suite: epochs persisted through the async pipeline must
// match the emitted answers byte for byte, a dead or slow store must
// degrade to the unpersisted ledger without ever touching ingest, and
// checkpoint + store replay must resume a killed run exactly.

// noSleep retries instantly so fault-heavy tests don't serve real backoff.
func noSleep() backoff.Policy {
	return backoff.Policy{Sleep: func(time.Duration) {}}
}

// renderStored serializes a store record exactly like renderRows does an
// emission, so the two can be compared byte for byte.
func renderStored(rec *epochstore.Record) string {
	rows := make([]hfta.Row, len(rec.Rows))
	for i, r := range rec.Rows {
		rows[i] = hfta.Row{Rel: rec.Rel, Epoch: rec.Epoch, Key: r.Key, Aggs: r.Aggs}
	}
	return renderRows(rows)
}

func openStore(t *testing.T, dir string, opts epochstore.Options) *epochstore.Store {
	t.Helper()
	s, err := epochstore.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPersistedEpochsMatchEmissions: with a healthy store attached, every
// closed epoch's persisted records carry exactly the rows the engine
// emitted (same HAVING-applied answers) and the closed epoch's overload
// ledger — and they survive a store restart.
func TestPersistedEpochsMatchEmissions(t *testing.T) {
	recs, groups := testWorkload(t, 20000)
	dir := filepath.Join(t.TempDir(), "store")
	st := openStore(t, dir, epochstore.Options{})
	emit := emissionMap{}
	e, err := New(pairSQL, groups, Options{
		M: 8000, Seed: 3, Store: st, OnResults: collectEmissions(t, emit),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}

	degs := e.EpochDegradations()
	if len(degs) < 2 {
		t.Fatalf("workload closed only %d epochs", len(degs))
	}
	d := e.Durability()
	if !d.Enabled {
		t.Error("Durability.Enabled = false with a store attached")
	}
	if len(d.Unpersisted) != 0 || d.QueueFull != 0 || d.LastError != "" {
		t.Errorf("healthy store degraded: %+v", d)
	}
	if d.Persisted != len(degs) {
		t.Errorf("persisted %d epochs; closed %d", d.Persisted, len(degs))
	}

	check := func(t *testing.T, s *epochstore.Store) {
		t.Helper()
		if s.Len() != len(degs)*len(chaosQueries) {
			t.Fatalf("store holds %d records; want %d", s.Len(), len(degs)*len(chaosQueries))
		}
		for _, deg := range degs {
			for _, q := range chaosQueries {
				rec, err := s.Read(deg.Epoch, q)
				if err != nil {
					t.Fatalf("epoch %d of %v: %v", deg.Epoch, q, err)
				}
				if got, want := renderStored(rec), emit[epochKey{q, deg.Epoch}]; got != want {
					t.Errorf("epoch %d of %v: stored rows differ from the emission", deg.Epoch, q)
				}
				if rec.Offered != deg.Offered || rec.Processed != deg.Processed ||
					rec.Dropped != deg.Dropped || rec.Late != deg.Late {
					t.Errorf("epoch %d of %v: stored ledger %+v; closed epoch %+v", deg.Epoch, q, rec, deg)
				}
			}
		}
	}
	check(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the records must still be there, bit for bit.
	re := openStore(t, dir, epochstore.Options{})
	defer re.Close()
	if re.Recovery().Dirty() {
		t.Errorf("clean shutdown needed repair: %+v", re.Recovery())
	}
	check(t, re)
}

// TestStoreDownDegradesGracefully: a store that fails every operation
// must not disturb ingest or answers — every epoch lands in the
// unpersisted ledger and the run is otherwise identical to a storeless
// one.
func TestStoreDownDegradesGracefully(t *testing.T) {
	recs, groups := testWorkload(t, 20000)

	// Reference emissions without any store.
	want := emissionMap{}
	ref, err := New(pairSQL, groups, Options{M: 8000, Seed: 3, OnResults: collectEmissions(t, want)})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}

	// The store opens fine, then the disk dies before the first epoch.
	ffs := epochstore.NewFaultFS(nil, epochstore.Faults{})
	st := openStore(t, filepath.Join(t.TempDir(), "store"), epochstore.Options{FS: ffs})
	defer st.Close()
	ffs.CrashNow()

	emit := emissionMap{}
	e, err := New(pairSQL, groups, Options{
		M: 8000, Seed: 3, Store: st,
		StoreBackoff: noSleep(),
		OnResults:    collectEmissions(t, emit),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatalf("ingest failed because the store is down: %v", err)
	}
	assertLedger(t, e, uint64(len(recs)))

	if len(emit) != len(want) {
		t.Fatalf("emitted %d results with a dead store; storeless run emitted %d", len(emit), len(want))
	}
	for k, w := range want {
		if emit[k] != w {
			t.Errorf("epoch %d of %v: answers differ with a dead store", k.epoch, k.rel)
		}
	}

	d := e.Durability()
	degs := e.EpochDegradations()
	if d.Persisted != 0 {
		t.Errorf("persisted %d epochs on a dead store", d.Persisted)
	}
	if len(d.Unpersisted) != len(degs) {
		t.Errorf("unpersisted ledger lists %d epochs; %d closed", len(d.Unpersisted), len(degs))
	}
	if d.LastError == "" {
		t.Error("no LastError after every append failed")
	}
	for _, deg := range degs {
		if !d.EpochUnpersisted(deg.Epoch) {
			t.Errorf("epoch %d missing from the unpersisted ledger", deg.Epoch)
		}
	}
}

// TestPersistQueueFullDegrades: when the store is too slow and the
// bounded queue fills, epochs degrade to unpersisted (counted as
// QueueFull) instead of blocking ingest.
func TestPersistQueueFullDegrades(t *testing.T) {
	recs, groups := testWorkload(t, 20000)

	// Opening the store performs exactly two writes (segment header,
	// manifest); pre-feed those, then every later write blocks on the gate
	// until it is closed.
	gate := make(chan struct{}, 2)
	gate <- struct{}{}
	gate <- struct{}{}
	ffs := epochstore.NewFaultFS(nil, epochstore.Faults{BlockWrites: gate})
	st := openStore(t, filepath.Join(t.TempDir(), "store"), epochstore.Options{FS: ffs})
	defer st.Close()

	e, err := New(pairSQL, groups, Options{
		M: 8000, Seed: 3, Store: st, StoreQueue: 1, StoreBackoff: noSleep(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := e.Process(r); err != nil {
			t.Fatalf("ingest blocked on a stalled store: %v", err)
		}
	}
	close(gate) // disk recovers; let Finish drain what queued
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}

	d := e.Durability()
	degs := e.EpochDegradations()
	if d.QueueFull == 0 {
		t.Fatal("stalled store never overflowed the size-1 queue")
	}
	if d.Persisted == 0 {
		t.Error("no epoch persisted even after the store recovered")
	}
	if d.Persisted+len(d.Unpersisted) != len(degs) {
		t.Errorf("persisted %d + unpersisted %d != %d closed epochs",
			d.Persisted, len(d.Unpersisted), len(degs))
	}
}

// TestPersisterLagCopiesRows: the persister never holds a view of the
// HFTA's logs. Behind a store whose writes block, the persister stalls on
// the first closed epoch and every later one waits in its queue while the
// engine recycles the logs those epochs were read out of; once the store
// recovers, each stored record must equal a storeless reference run's
// emission row for row. Run under -race, it also sees a record whose rows
// alias a log the engine is writing.
func TestPersisterLagCopiesRows(t *testing.T) {
	recs, groups := testWorkload(t, 24000)
	for i := range recs { // spread over 12 epochs of 10 ticks
		recs[i].Time = uint32(i * 120 / len(recs))
	}
	sqls := make([]string, len(pairSQL))
	for i, q := range pairSQL {
		sqls[i] = q + " having cnt > 1"
	}
	want := emissionMap{}
	ref, err := New(sqls, groups, Options{M: 8000, Seed: 3, OnResults: collectEmissions(t, want)})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}

	st, _, release := gatedStore(t)
	e, err := New(sqls, groups, Options{
		M: 8000, Seed: 3, Store: st, StoreQueue: 16, StoreBackoff: noSleep(),
		OnResults: func(attr.Set, uint32, []hfta.Row, Degradation) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := e.Process(r); err != nil {
			t.Fatal(err)
		}
	}
	if d, closed := e.Durability(), len(e.EpochDegradations()); d.Persisted != 0 || closed < 10 {
		t.Fatalf("persister is %d epochs behind the close (persisted %d); want ≥ 10 and 0", closed, d.Persisted)
	}
	release()
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	degs := e.EpochDegradations()
	if d := e.Durability(); d.Persisted != len(degs) {
		t.Fatalf("persisted %d of %d epochs: %+v", d.Persisted, len(degs), d)
	}
	for _, deg := range degs {
		for _, q := range chaosQueries {
			rec, err := st.Read(deg.Epoch, q)
			if err != nil {
				t.Fatalf("epoch %d of %v: %v", deg.Epoch, q, err)
			}
			if renderStored(rec) != want[epochKey{q, deg.Epoch}] {
				t.Errorf("epoch %d of %v: stored rows differ from the reference's", deg.Epoch, q)
			}
		}
	}
}

// TestKillRestoreWithStoreReplay is the acceptance crash test for the
// durable pipeline: kill the engine mid-epoch, reopen the store, restore
// the checkpoint, replay the store — the resumed engine answers every
// pre-crash epoch byte-identically, and the union of emissions matches an
// uninterrupted run exactly.
func TestKillRestoreWithStoreReplay(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	opts := Options{M: 8000, Seed: 3}

	// Uninterrupted reference run (storeless).
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

	// Crashed run: store + checkpoint at every boundary, die mid-epoch.
	base := t.TempDir()
	dir := filepath.Join(base, "store")
	ckpt := filepath.Join(base, "kill.ckpt")
	st1 := openStore(t, dir, epochstore.Options{})
	copts := opts
	copts.Store = st1
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
	// No Finish: the process is gone. Quiesce the persister's in-flight
	// writes and drop the handle, as a killed process's page cache would
	// have been flushed by the store's per-epoch fsync anyway. Torn-write
	// crashes inside the store are the epochstore crash suite's job.
	e1.SyncStore()
	st1.Close()

	// Resumed run: reopen the store, restore the checkpoint, replay.
	st2 := openStore(t, dir, epochstore.Options{})
	resumeEmit := emissionMap{}
	popts := opts
	popts.Store = st2
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
	if err := e2.ReplayStore(); err != nil {
		t.Fatal(err)
	}

	// Historical query path: every epoch the crashed run emitted must be
	// answerable from the replayed store, byte-identically.
	for k, want := range crashEmit {
		rows, err := e2.Results(k.rel, k.epoch)
		if err != nil {
			t.Fatalf("replayed epoch %d of %v unreadable: %v", k.epoch, k.rel, err)
		}
		if renderRows(rows) != want {
			t.Errorf("replayed epoch %d of %v differs from the crashed run's emission", k.epoch, k.rel)
		}
	}

	if err := e2.Run(stream.NewSkipSource(stream.NewSliceSource(recs), consumed)); err != nil {
		t.Fatal(err)
	}
	assertLedger(t, e2, uint64(len(recs)))

	// Merged emissions must equal the uninterrupted run's exactly.
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

	// After the resumed run drains, the store holds every closed epoch.
	if d := e2.Durability(); len(d.Unpersisted) != 0 {
		t.Errorf("epochs still unpersisted after recovery: %v", d.Unpersisted)
	}
	st2.Close()
	final := openStore(t, dir, epochstore.Options{})
	defer final.Close()
	for k, want := range wantEmit {
		rec, err := final.Read(k.epoch, k.rel)
		if err != nil {
			t.Fatalf("epoch %d of %v missing from the final store: %v", k.epoch, k.rel, err)
		}
		if renderStored(rec) != want {
			t.Errorf("epoch %d of %v: final store differs from the uninterrupted run", k.epoch, k.rel)
		}
	}
}

// TestReplayMatchesCheckpointRetainedRows is the direct equivalence
// property: restoring a checkpoint that retained its result rows must
// yield the same per-epoch answers as restoring a row-less checkpoint and
// replaying the store.
func TestReplayMatchesCheckpointRetainedRows(t *testing.T) {
	recs, groups := testWorkload(t, 20000)
	base := t.TempDir()
	opts := Options{M: 8000, Seed: 3}

	// Run A: no result handler, so its checkpoints retain every row.
	ckA := filepath.Join(base, "a.ckpt")
	aopts := opts
	aopts.CheckpointPath = ckA
	eA, err := New(pairSQL, groups, aopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eA.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}

	// Run B: emits (and drops) rows, persisting them to the store instead.
	ckB := filepath.Join(base, "b.ckpt")
	dirB := filepath.Join(base, "store")
	stB := openStore(t, dirB, epochstore.Options{})
	bopts := opts
	bopts.CheckpointPath = ckB
	bopts.Store = stB
	bopts.OnResults = func(attr.Set, uint32, []hfta.Row, Degradation) {}
	eB, err := New(pairSQL, groups, bopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eB.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	stB.Close()

	// Restore path 1: rows from the checkpoint.
	e1, err := New(pairSQL, groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := e1.RestoreCheckpointFile(ckA)
	if err != nil {
		t.Fatal(err)
	}

	// Restore path 2: row-less checkpoint plus store replay.
	st2 := openStore(t, dirB, epochstore.Options{})
	defer st2.Close()
	popts := opts
	popts.Store = st2
	e2, err := New(pairSQL, groups, popts)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := e2.RestoreCheckpointFile(ckB)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatalf("checkpoint positions diverge: %d vs %d", c1, c2)
	}
	if err := e2.ReplayStore(); err != nil {
		t.Fatal(err)
	}

	degs := e1.EpochDegradations()
	if len(degs) < 2 {
		t.Fatalf("checkpoint covers only %d closed epochs", len(degs))
	}
	for _, deg := range degs {
		for _, q := range chaosQueries {
			r1, err := e1.Results(q, deg.Epoch)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := e2.Results(q, deg.Epoch)
			if err != nil {
				t.Fatal(err)
			}
			if renderRows(r1) != renderRows(r2) {
				t.Errorf("epoch %d of %v: checkpoint rows and store replay disagree", deg.Epoch, q)
			}
		}
	}
}

// TestEngineCrashPointsDuringPersist sweeps simulated power cuts across
// the persistence pipeline's entire write history: wherever the disk
// dies, ingest and answers are untouched, the ledger accounts for every
// closed epoch, and whatever the store retains is byte-identical to the
// reference emissions.
func TestEngineCrashPointsDuringPersist(t *testing.T) {
	const cuts = 25
	recs, groups := testWorkload(t, 12000)
	base := t.TempDir()

	// Reference emissions (storeless) and total store bytes (fault-free).
	want := emissionMap{}
	ref, err := New(pairSQL, groups, Options{M: 8000, Seed: 3, OnResults: collectEmissions(t, want)})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	ffs0 := epochstore.NewFaultFS(nil, epochstore.Faults{})
	st0 := openStore(t, filepath.Join(base, "ref"), epochstore.Options{FS: ffs0})
	e0, err := New(pairSQL, groups, Options{
		M: 8000, Seed: 3, Store: st0,
		OnResults: func(attr.Set, uint32, []hfta.Row, Degradation) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e0.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	total := ffs0.Written()
	st0.Close()
	if total < cuts {
		t.Fatalf("reference run wrote only %d bytes", total)
	}

	for i := 1; i <= cuts; i++ {
		cut := total * int64(i) / cuts
		dir := filepath.Join(base, fmt.Sprintf("cut-%02d", i))
		ffs := epochstore.NewFaultFS(nil, epochstore.Faults{CrashAfterBytes: cut})
		st, err := epochstore.Open(dir, epochstore.Options{FS: ffs})
		if err != nil {
			if !errors.Is(err, epochstore.ErrCrashed) {
				t.Fatalf("cut %d: open failed with a non-crash error: %v", cut, err)
			}
			continue // disk died during store open; nothing to attach
		}
		emit := emissionMap{}
		e, err := New(pairSQL, groups, Options{
			M: 8000, Seed: 3, Store: st,
			StoreBackoff: noSleep(),
			OnResults:    collectEmissions(t, emit),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(stream.NewSliceSource(recs)); err != nil {
			t.Fatalf("cut %d: ingest failed because the disk died: %v", cut, err)
		}
		assertLedger(t, e, uint64(len(recs)))
		for k, w := range want {
			if emit[k] != w {
				t.Errorf("cut %d: epoch %d of %v answered differently under a disk crash", cut, k.epoch, k.rel)
			}
		}
		d := e.Durability()
		degs := e.EpochDegradations()
		if d.Persisted+len(d.Unpersisted) != len(degs) {
			t.Errorf("cut %d: persisted %d + unpersisted %d != %d closed epochs",
				cut, d.Persisted, len(d.Unpersisted), len(degs))
		}
		st.Close()

		// Restart on a healthy disk: the retained records are a
		// duplicate-free subset, byte-identical to the reference run, and
		// every epoch the ledger calls persisted is fully present.
		r := openStore(t, dir, epochstore.Options{})
		err = r.Scan(func(rec *epochstore.Record) error {
			w, known := want[epochKey{rec.Rel, rec.Epoch}]
			if !known {
				return fmt.Errorf("store retains epoch %d of %v, never emitted", rec.Epoch, rec.Rel)
			}
			if renderStored(rec) != w {
				return fmt.Errorf("epoch %d of %v differs from the reference emission", rec.Epoch, rec.Rel)
			}
			if rec.Offered != rec.Processed+rec.Dropped+rec.Late {
				return fmt.Errorf("epoch %d of %v: ledger identity broken", rec.Epoch, rec.Rel)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for _, deg := range degs {
			if d.EpochUnpersisted(deg.Epoch) {
				continue
			}
			for _, q := range chaosQueries {
				if !r.Has(deg.Epoch, q) {
					t.Errorf("cut %d: epoch %d of %v marked persisted but missing after restart", cut, deg.Epoch, q)
				}
			}
		}
		r.Close()
	}
}

// TestEmitEpochRetries: transient Results failures inside epoch emission
// are retried with backoff and never surface; a permanent failure burns
// the whole retry budget, then degrades to the ResultErrors counter.
func TestEmitEpochRetries(t *testing.T) {
	recs, groups := testWorkload(t, 8000)

	want := emissionMap{}
	ref, err := New(pairSQL, groups, Options{M: 8000, Seed: 3, OnResults: collectEmissions(t, want)})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}

	t.Run("transient", func(t *testing.T) {
		emit := emissionMap{}
		e, err := New(pairSQL, groups, Options{M: 8000, Seed: 3, OnResults: collectEmissions(t, emit)})
		if err != nil {
			t.Fatal(err)
		}
		sleeps := 0
		e.emitRetry = backoff.Policy{Attempts: 4, Sleep: func(time.Duration) { sleeps++ }}
		real := e.emitResults
		calls := map[epochKey]int{}
		e.emitResults = func(rel attr.Set, epoch uint32) ([]hfta.Row, error) {
			k := epochKey{rel, epoch}
			calls[k]++
			if calls[k] <= 2 {
				return nil, fmt.Errorf("transient result failure %d", calls[k])
			}
			return real(rel, epoch)
		}
		if err := e.Run(stream.NewSliceSource(recs)); err != nil {
			t.Fatalf("transient failures surfaced from Run: %v", err)
		}
		if n := e.Stats().ResultErrors; n != 0 {
			t.Errorf("ResultErrors = %d after recovered retries; want 0", n)
		}
		if sleeps == 0 {
			t.Error("retries never backed off")
		}
		if len(emit) != len(want) {
			t.Fatalf("emitted %d results; want %d", len(emit), len(want))
		}
		for k, w := range want {
			if emit[k] != w {
				t.Errorf("epoch %d of %v differs after retried emission", k.epoch, k.rel)
			}
		}
	})

	t.Run("permanent", func(t *testing.T) {
		emitted := 0
		e, err := New(pairSQL, groups, Options{
			M: 8000, Seed: 3,
			OnResults: func(attr.Set, uint32, []hfta.Row, Degradation) { emitted++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		e.emitRetry = backoff.Policy{Attempts: 3, Sleep: func(time.Duration) {}}
		calls := map[epochKey]int{}
		e.emitResults = func(rel attr.Set, epoch uint32) ([]hfta.Row, error) {
			calls[epochKey{rel, epoch}]++
			return nil, fmt.Errorf("sink is gone")
		}
		if err := e.Run(stream.NewSliceSource(recs)); err == nil {
			t.Fatal("permanent emission failure never surfaced from Finish")
		}
		if emitted != 0 {
			t.Errorf("%d emissions delivered despite permanent failure", emitted)
		}
		degs := e.EpochDegradations()
		if n := e.Stats().ResultErrors; n != len(degs)*len(chaosQueries) {
			t.Errorf("ResultErrors = %d; want %d (every query of every epoch)", n, len(degs)*len(chaosQueries))
		}
		for k, n := range calls {
			if n != 3 {
				t.Errorf("epoch %d of %v attempted %d times; want the full budget of 3", k.epoch, k.rel, n)
			}
		}
		assertLedger(t, e, uint64(len(recs)))
	})
}

// TestCheckpointDurabilityRoundTrip: an engine with durability state
// writes an image whose footer carries the ledger; restoring it — even
// into a storeless engine — round-trips the ledger and the image's bytes,
// an attached store's contents override the footer's persisted and
// unpersisted epochs, and truncated or future-versioned images are
// rejected.
func TestCheckpointDurabilityRoundTrip(t *testing.T) {
	recs, groups := testWorkload(t, 12000)
	opts := Options{M: 8000, Seed: 3}

	// A store whose writes never complete, behind a one-epoch queue: the
	// persister blocks on the first closed epoch, the queue holds the
	// next, and every later epoch is lost to a full queue — a ledger with
	// queue-full and unpersisted epochs for the footer to carry.
	st, _, release := gatedStore(t)
	sopts := opts
	sopts.Store = st
	sopts.StoreQueue = 1
	sopts.OnResults = func(attr.Set, uint32, []hfta.Row, Degradation) {}
	e, err := New(pairSQL, groups, sopts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := e.Process(r); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	d0 := e.Durability()
	release()
	e.persist.stop()
	if d0.QueueFull == 0 || len(d0.Unpersisted) == 0 {
		t.Fatalf("ledger %+v has no queue-full or unpersisted epoch; footer untested", d0)
	}

	// Round trip into a storeless engine: the ledger must survive.
	e2, err := New(pairSQL, groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Restore(bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	d2 := e2.Durability()
	if d2.Enabled {
		t.Error("restored storeless engine claims a store")
	}
	if d2.Persisted != d0.Persisted || d2.QueueFull != d0.QueueFull {
		t.Errorf("restored ledger %+v; checkpointed %+v", d2, d0)
	}
	if fmt.Sprint(d2.Unpersisted) != fmt.Sprint(d0.Unpersisted) {
		t.Errorf("restored unpersisted set %v; checkpointed %v", d2.Unpersisted, d0.Unpersisted)
	}
	var again bytes.Buffer
	if err := e2.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), img) {
		t.Error("restored storeless engine does not re-serialize the image byte-identically")
	}

	// With a store attached, its actual contents are authoritative over
	// the footer: an empty store means nothing is persisted.
	st3 := openStore(t, filepath.Join(t.TempDir(), "empty"), epochstore.Options{})
	defer st3.Close()
	topts := opts
	topts.Store = st3
	e3, err := New(pairSQL, groups, topts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e3.Restore(bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	d3 := e3.Durability()
	degs := e3.EpochDegradations()
	if d3.Persisted != 0 || len(d3.Unpersisted) != len(degs) || d3.QueueFull != d0.QueueFull {
		t.Errorf("empty store reconciled to %+v over %d closed epochs; want none persisted, all unpersisted, QueueFull %d kept",
			d3, len(degs), d0.QueueFull)
	}

	mustReject := func(t *testing.T, data []byte) {
		t.Helper()
		f, err := New(pairSQL, groups, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Restore(bytes.NewReader(data)); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("err = %v; want ErrBadCheckpoint", err)
		}
	}
	t.Run("truncated footer", func(t *testing.T) {
		for cut := 1; cut <= 16 && cut < len(img); cut++ {
			mustReject(t, img[:len(img)-cut])
		}
	})
	t.Run("future version", func(t *testing.T) {
		b := append([]byte(nil), img...)
		b[4] = ckptVersion + 1
		mustReject(t, b)
	})
}

// TestReplayStoreRefusesAggregateArity: a store written by a workload
// whose queries carry a different number of aggregates than the replaying
// engine's — fewer or more, over the same relations — is refused with an
// error naming the epoch, the relation and both arities, instead of
// shearing (or silently misaligning) the HFTA's aggregate columns.
func TestReplayStoreRefusesAggregateArity(t *testing.T) {
	recs, groups := testWorkload(t, 6000)
	withSum := make([]string, len(pairSQL))
	for i, q := range pairSQL {
		withSum[i] = strings.Replace(q, "count(*) as cnt", "count(*) as cnt, sum(A) as s", 1)
	}
	for _, tc := range []struct {
		name          string
		written, read []string
		have, want    int
	}{
		{"fewer", pairSQL, withSum, 1, 2},
		{"more", withSum, pairSQL, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			st := openStore(t, dir, epochstore.Options{})
			w, err := New(tc.written, groups, Options{M: 8000, Seed: 3, Store: st})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(stream.NewSliceSource(recs)); err != nil {
				t.Fatal(err)
			}
			st.Close()

			st2 := openStore(t, dir, epochstore.Options{})
			defer st2.Close()
			if st2.Len() == 0 {
				t.Fatal("the written store is empty")
			}
			r, err := New(tc.read, groups, Options{M: 8000, Seed: 3, Store: st2})
			if err != nil {
				t.Fatal(err)
			}
			err = r.ReplayStore()
			if err == nil {
				t.Fatal("ReplayStore accepted a store of another aggregate arity")
			}
			for _, part := range []string{"epoch 0 of AB", fmt.Sprintf("with %d aggregates, workload has %d", tc.have, tc.want)} {
				if !strings.Contains(err.Error(), part) {
					t.Errorf("error %q does not name %q", err, part)
				}
			}
		})
	}
}
