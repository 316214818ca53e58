package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/epochstore"
	"repro/internal/feedgraph"
	"repro/internal/gen"
	"repro/internal/hfta"
	"repro/internal/stream"
)

// logWorkload is a stream of many short epochs — epochs of 150 uniform
// records over an 800-group, 4-attribute universe, 10 time units each — so a
// checkpoint log crosses enough boundaries to rewrite its base image
// several times.
func logWorkload(t testing.TB, epochs int) []stream.Record {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	u, err := gen.UniformUniverse(rng, stream.MustSchema(4), 800, 40)
	if err != nil {
		t.Fatal(err)
	}
	return gen.Uniform(rng, u, 150*epochs, uint32(10*epochs))
}

// feedBoundaries feeds recs to e one record per batch, closing each epoch
// by hand as admission does — roll the clock, endEpoch, which records the
// boundary in the checkpoint log — so that at sees the engine exactly at
// every boundary; then the rolling record is fed. before, if set, runs just
// ahead of each boundary.
func feedBoundaries(t testing.TB, e *Engine, recs []stream.Record, before, at func()) {
	t.Helper()
	for _, rec := range recs {
		if started, cur, _ := e.clock.Snapshot(); e.specs[0].MatchWhere(rec.Attrs) && started && rec.Time/e.epochLen > cur {
			if before != nil {
				before()
			}
			if _, rolled, _ := e.clock.Observe(rec.Time); rolled {
				if err := e.endEpoch(); err != nil {
					t.Fatal(err)
				}
				at()
			}
		}
		if err := feedOne(e, rec); err != nil {
			t.Fatal(err)
		}
	}
}

// withHaving appends a HAVING clause to every query.
func withHaving(sqls []string) []string {
	out := make([]string, len(sqls))
	for i, q := range sqls {
		out[i] = q + " having cnt > 1"
	}
	return out
}

// logCase is one deployment of the checkpoint-log feature matrix. opts
// builds fresh Options (a shed policy carries state); the log tests add the
// path, the store and the handlers.
type logCase struct {
	name     string
	sqls     []string
	opts     func() Options
	store    bool
	handlers bool
}

func shedOpts(shards int) func() Options {
	return func() Options {
		return Options{M: 8000, Seed: 3, Shards: shards, Budget: 8, Shed: NewUniformShed(0.5, 99)}
	}
}

func logCases() []logCase {
	plain := func() Options { return Options{M: 8000, Seed: 3} }
	adaptive := func() Options {
		o := shedOpts(2)()
		o.Adapt = AdaptOptions{Enabled: true}
		return o
	}
	return []logCase{
		{name: "windowed/shards=2/shed/adaptive/store/handlers", sqls: withHaving(windowSQL(4, 2)), opts: adaptive, store: true, handlers: true},
		{name: "windowed/shards=0/retained", sqls: withHaving(windowSQL(3, 1)), opts: plain},
		{name: "tumbling/shards=2/shed/retained", sqls: pairSQL, opts: shedOpts(2)},
		{name: "tumbling/shards=0/store/handlers", sqls: withHaving(pairSQL), opts: plain, store: true, handlers: true},
	}
}

// handlerCase is the matrix's smallest-framed deployment without a store:
// sharded and shedding, every epoch handed to a handler, so its frames are
// a few hundred bytes and it appends many of them per base image.
var handlerCase = logCase{name: "tumbling/shards=2/shed/handlers", sqls: pairSQL, opts: shedOpts(2), handlers: true}

// gatedStore opens a store whose appends each wait for a token, so the
// durability ledger only moves when a test lets it. Opening performs two
// writes (segment header, manifest); those are pre-fed. release lets every
// later write through; the cleanup calls it before closing the store, so a
// failing test does not leave the persister blocked holding the store.
func gatedStore(t *testing.T) (st *epochstore.Store, gate chan struct{}, release func()) {
	t.Helper()
	gate = make(chan struct{}, 2)
	gate <- struct{}{}
	gate <- struct{}{}
	st = openStore(t, filepath.Join(t.TempDir(), "store"), epochstore.Options{
		FS: epochstore.NewFaultFS(nil, epochstore.Faults{BlockWrites: gate}),
	})
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(func() {
		release()
		st.Close()
	})
	return st, gate, release
}

// logRun is one engine of the matrix writing its checkpoint log.
type logRun struct {
	tc     logCase
	e      *Engine
	groups feedgraph.GroupCounts // the planning inputs it started from
	path   string

	// before, with a store, lets exactly the previous boundary's epoch
	// persist, so the durability ledger stands still across each boundary;
	// finish releases the rest and finishes the engine.
	before, finish func()
}

// newLogRun builds tc's engine writing its checkpoint log in a temporary
// directory.
func newLogRun(t *testing.T, tc logCase, recs []stream.Record) *logRun {
	t.Helper()
	path := filepath.Join(t.TempDir(), "engine.ckpt")
	opts := tc.opts()
	opts.CheckpointPath = path
	var (
		gate    chan struct{}
		release func()
	)
	if tc.store {
		opts.Store, gate, release = gatedStore(t)
		opts.StoreQueue = 1 << 10
	}
	if tc.handlers {
		opts.OnResults = func(attr.Set, uint32, []hfta.Row, Degradation) {}
		opts.OnWindow = func(attr.Set, hfta.WindowLedger, []hfta.WindowRow) {}
	}
	e, err := NewFromSample(tc.sqls, recs, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := &logRun{tc: tc, e: e, groups: maps.Clone(e.Groups()), path: path}
	if gate != nil {
		r.before = func() {
			if e.stats.Epochs > 0 {
				gate <- struct{}{}
				e.SyncStore()
			}
		}
	}
	r.finish = func() {
		if release != nil {
			release()
		}
		if err := e.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// restore restores the run's deployment — no store, no handlers — from
// data.
func (r *logRun) restore(t *testing.T, data []byte) (e *Engine, consumed uint64, frames int, err error) {
	t.Helper()
	e, err = New(r.tc.sqls, r.groups, r.tc.opts())
	if err != nil {
		t.Fatal(err)
	}
	consumed, frames, err = e.restore(bytes.NewReader(data))
	return e, consumed, frames, err
}

// file reads the log.
func (r *logRun) file(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(r.path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointLogRestoresEveryBoundary: across the feature matrix, at
// every epoch boundary and across several base-image rewrites, restoring
// the file at CheckpointPath and checkpointing the result reproduces the
// live engine's own checkpoint at that boundary byte for byte.
func TestCheckpointLogRestoresEveryBoundary(t *testing.T) {
	recs := logWorkload(t, 40)
	for _, tc := range logCases() {
		t.Run(tc.name, func(t *testing.T) {
			run := newLogRun(t, tc, recs)
			e := run.e
			bases, frames := 0, 0
			feedBoundaries(t, e, recs, run.before, func() {
				var live bytes.Buffer
				if err := e.Checkpoint(&live); err != nil {
					t.Fatal(err)
				}
				if e.ckptLog.frames == 0 {
					bases++
				}
				r, consumed, n, err := run.restore(t, run.file(t))
				if err != nil {
					t.Fatalf("boundary %d: %v", e.stats.Epochs, err)
				}
				frames += n
				if consumed != e.consumed {
					t.Fatalf("boundary %d: restored position %d, live %d", e.stats.Epochs, consumed, e.consumed)
				}
				var got bytes.Buffer
				if err := r.Checkpoint(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), live.Bytes()) {
					t.Fatalf("boundary %d (%d frames folded): restored checkpoint (%d bytes) differs from the live one (%d bytes)",
						e.stats.Epochs, n, got.Len(), live.Len())
				}
			})
			run.finish()
			if bases < 3 || frames == 0 {
				t.Fatalf("%d base images and %d folded frames over %d boundaries; the matrix needs two rewrites and frames between them",
					bases, frames, e.stats.Epochs)
			}
			if d := e.Stats().Degradation; tc.opts().Budget > 0 && (d.Dropped == 0 || d.Processed == 0) {
				t.Fatalf("budgeted case shed %d of %d records: vacuous", d.Dropped, d.Offered)
			}
		})
	}
}

// logSnap is the log and the live engine at one boundary.
type logSnap struct {
	file     []byte
	live     []byte
	consumed uint64
	base     bool
}

// TestCheckpointLogTornTail: a log cut at any byte past its base image
// restores exactly the last boundary whose frame is complete and returns
// its stream position; a frame whose checksum fails, one that does not
// extend the state folded so far, and every frame after a torn one are not
// applied.
func TestCheckpointLogTornTail(t *testing.T) {
	recs := logWorkload(t, 16)
	run := newLogRun(t, handlerCase, recs)
	var snaps []logSnap
	feedBoundaries(t, run.e, recs, nil, func() {
		var live bytes.Buffer
		if err := run.e.Checkpoint(&live); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, logSnap{file: run.file(t), live: live.Bytes(), consumed: run.e.consumed, base: run.e.ckptLog.frames == 0})
	})
	run.finish()
	// The longest run of frames after one base image.
	from, to := 0, 0
	for b := range snaps {
		if !snaps[b].base {
			continue
		}
		k := b
		for k+1 < len(snaps) && !snaps[k+1].base {
			k++
		}
		if k-b > to-from {
			from, to = b, k
		}
	}
	if to-from < 3 {
		t.Fatalf("longest run is %d frames; the sweep needs several", to-from)
	}
	file := snaps[to].file
	expect := func(t *testing.T, data []byte, j int) {
		t.Helper()
		r, consumed, frames, err := run.restore(t, data)
		if err != nil {
			t.Fatal(err)
		}
		if consumed != snaps[j].consumed || frames != j-from {
			t.Fatalf("restored position %d after %d frames; want boundary %d: position %d after %d frames",
				consumed, frames, j, snaps[j].consumed, j-from)
		}
		var got bytes.Buffer
		if err := r.Checkpoint(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), snaps[j].live) {
			t.Fatalf("restore differs from the live checkpoint at boundary %d", j)
		}
	}
	j := from
	for cut := len(snaps[from].file); cut <= len(file); cut++ {
		for j < to && len(snaps[j+1].file) <= cut {
			j++
		}
		expect(t, file[:cut], j)
	}

	// The run's frames, from 1, as spans of file.
	frame := func(i int) []byte { return file[len(snaps[from+i-1].file):len(snaps[from+i].file)] }
	image := file[:len(snaps[from].file)]
	flipped := bytes.Clone(frame(1))
	flipped[len(flipped)-1] ^= 0x40
	f1 := frame(1)

	t.Run("checksum fails", func(t *testing.T) { expect(t, slices.Concat(image, flipped, frame(2)), from) })
	t.Run("skips a boundary", func(t *testing.T) { expect(t, slices.Concat(image, frame(2), frame(3)), from) })
	t.Run("repeats a boundary", func(t *testing.T) { expect(t, slices.Concat(image, f1, f1, frame(2)), from+1) })
	t.Run("after a torn frame", func(t *testing.T) { expect(t, slices.Concat(image, f1[:len(f1)-3], frame(2), frame(3)), from) })
}

// TestCheckpointLogFailedAppend: a failed append surfaces from
// ProcessColumnBatch as a failed image write does, and the next boundary
// writes a base image.
func TestCheckpointLogFailedAppend(t *testing.T) {
	recs := logWorkload(t, 12)
	run := newLogRun(t, handlerCase, recs)
	e := run.e
	i := 0
	for ; i < len(recs) && e.stats.Epochs < 1; i++ {
		if err := feedOne(e, recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if e.ckptLog.f == nil || e.ckptLog.frames != 0 {
		t.Fatal("boundary 1 wrote no base image")
	}
	// Boundary 2 appends a frame to it, on a descriptor closed under it.
	e.ckptLog.f.Close()
	var err error
	for ; i < len(recs) && err == nil; i++ {
		err = feedOne(e, recs[i])
	}
	if !errors.Is(err, os.ErrClosed) || e.stats.Epochs != 2 {
		t.Fatalf("boundary %d: ProcessColumnBatch returned %v; want boundary 2's append error", e.stats.Epochs, err)
	}
	if e.ckptLog.f != nil {
		t.Fatal("the log stays open after a failed append")
	}
	for ; i < len(recs) && e.stats.Epochs < 4; i++ {
		if err := feedOne(e, recs[i]); err != nil {
			t.Fatal(err)
		}
		if e.stats.Epochs == 3 && e.ckptLog.frames != 0 {
			t.Fatal("boundary 3, after the failed append, wrote no base image")
		}
	}
	_, consumed, frames, err := run.restore(t, run.file(t))
	if err != nil {
		t.Fatal(err)
	}
	if e.stats.Epochs != 4 || consumed == 0 || frames != 1 {
		t.Fatalf("after %d boundaries the log restores %d frames to position %d; want boundary 3's image and one frame",
			e.stats.Epochs, frames, consumed)
	}
}

// TestFinishClosesCheckpointLog: Finish closes the log's descriptor and
// leaves the log restoring to the last closed boundary.
func TestFinishClosesCheckpointLog(t *testing.T) {
	recs := logWorkload(t, 6)
	run := newLogRun(t, handlerCase, recs)
	e := run.e
	if err := feedAll(e, recs); err != nil {
		t.Fatal(err)
	}
	f := e.ckptLog.f
	if f == nil {
		t.Fatal("no log open before Finish")
	}
	epochs := e.stats.Epochs
	run.finish()
	if _, err := f.Stat(); !errors.Is(err, os.ErrClosed) || e.ckptLog.f != nil {
		t.Fatalf("after Finish the log's descriptor answers %v; want it closed", err)
	}
	r, _, _, err := run.restore(t, run.file(t))
	if err != nil || r.stats.Epochs != epochs {
		t.Fatalf("restored %d epochs (%v); want the %d closed before Finish", r.stats.Epochs, err, epochs)
	}
}

// boundaryRig is product-full's shape — four windowed (4/2) queries with
// count_distinct at HLL precision 10, two shards, a durable store, result
// and window handlers — fed the same epoch of records (n draws from a
// universe of groups tuples) over and over, so every boundary changes the
// same amount of state while the histories an image carries grow by one
// epoch each.
type boundaryRig struct {
	e     *Engine
	path  string
	times []uint32 // the epoch's timestamps within it
	batch stream.ColumnBatch
	next  uint32 // the epoch fed next
	base  int64  // the current base image's size
	prev  os.FileInfo
}

func newBoundaryRig(tb testing.TB, n, groups int) *boundaryRig {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	u, err := gen.UniformUniverse(rng, stream.MustSchema(4), groups, 30)
	if err != nil {
		tb.Fatal(err)
	}
	recs := gen.Uniform(rng, u, n, 10)
	dir := tb.TempDir()
	st, err := epochstore.Open(filepath.Join(dir, "store"), epochstore.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	sqls := []string{
		"select A, B, count(*) as cnt, count_distinct(D) as uniq from R group by A, B, time/10 window 4 slide 2",
		"select B, C, count(*) as cnt, count_distinct(D) as uniq from R group by B, C, time/10 window 4 slide 2",
		"select B, D, count(*) as cnt, count_distinct(D) as uniq from R group by B, D, time/10 window 4 slide 2",
		"select C, D, count(*) as cnt, count_distinct(D) as uniq from R group by C, D, time/10 window 4 slide 2",
	}
	r := &boundaryRig{path: filepath.Join(dir, "engine.ckpt")}
	r.e, err = NewFromSample(sqls, recs, Options{
		M: 8000, Seed: 3, Shards: 2, WindowSketchPrecision: 10,
		Store: st, StoreQueue: 1 << 14, CheckpointPath: r.path,
		OnResults: func(attr.Set, uint32, []hfta.Row, Degradation) {},
		OnWindow:  func(attr.Set, hfta.WindowLedger, []hfta.WindowRow) {},
	})
	if err != nil {
		tb.Fatal(err)
	}
	r.batch.Reset(4)
	for _, rec := range recs {
		r.batch.Append(rec.Attrs, rec.Time)
		r.times = append(r.times, rec.Time)
	}
	tb.Cleanup(func() { r.e.Finish() })
	return r
}

// feed admits one more epoch of records.
func (r *boundaryRig) feed(tb testing.TB) {
	for i, t := range r.times {
		r.batch.Time[i] = r.next*10 + t
	}
	r.next++
	if err := r.e.ProcessColumnBatch(&r.batch); err != nil {
		tb.Fatal(err)
	}
}

// roll closes the open epoch as its successor's first record would, short
// of recording the boundary.
func (r *boundaryRig) roll(tb testing.TB) {
	if _, rolled, _ := r.e.clock.Observe(r.next * 10); !rolled {
		tb.Fatal("the clock did not roll")
	}
	r.e.closeEpochState()
}

// written reports the bytes the last boundary wrote: a new base image, or
// the frame appended to the log.
func (r *boundaryRig) written(tb testing.TB) (n int64, base bool) {
	fi, err := os.Stat(r.path)
	if err != nil {
		tb.Fatal(err)
	}
	defer func() { r.prev = fi }()
	if r.prev == nil || !os.SameFile(fi, r.prev) {
		r.base = fi.Size()
		return fi.Size(), true
	}
	return fi.Size() - r.prev.Size(), false
}

// TestCheckpointLogFlat is the guard against O(epochs) checkpoint writes:
// on a run of 5000 epochs the frame a boundary appends is the same size at
// epoch 10 as at epoch 5000, and the file never exceeds
// (1+ckptLogRewrite)× its base image. (See also
// TestCheckpointAllocsIndependentOfHistory.)
func TestCheckpointLogFlat(t *testing.T) {
	r := newBoundaryRig(t, 48, 32)
	const epochs = 5000
	frameAt := map[int]int64{}
	for k := 1; k <= epochs; k++ {
		r.feed(t)
		r.roll(t)
		if err := r.e.logCheckpoint(); err != nil {
			t.Fatal(err)
		}
		n, base := r.written(t)
		if !base {
			frameAt[k] = n
		}
		if size := r.prev.Size(); size > (1+ckptLogRewrite)*r.base {
			t.Fatalf("epoch %d: log of %d bytes over a %d-byte image", k, size, r.base)
		}
	}
	// Frames of the same phase of the 2-epoch slide, 4960 epochs apart.
	same := 0
	for k := 10; k < 40; k++ {
		a, okA := frameAt[k]
		b, okB := frameAt[k+epochs-40]
		if okA && okB {
			if a != b {
				t.Errorf("frame at epoch %d is %d bytes, at epoch %d %d bytes", k, a, k+epochs-40, b)
			}
			same++
		}
	}
	if same == 0 {
		t.Fatal("no pair of frames to compare")
	}
}

// BenchmarkCheckpointBoundary times one boundary's checkpoint — the frame
// (or, amortized, the base image) the engine records at an epoch end — on
// a boundaryRig engine with product-full-sized panes, after 10 and after
// 5000 closed epochs. bytes/op is what a boundary wrote to the log; with
// -benchtime 500x it is the mean over epochs 10–510 and 5000–5500.
func BenchmarkCheckpointBoundary(b *testing.B) {
	for _, warm := range []int{10, 5000} {
		b.Run(fmt.Sprintf("epochs=%d", warm), func(b *testing.B) {
			r := newBoundaryRig(b, 320, 160)
			for k := 0; k < warm; k++ {
				r.feed(b)
				r.roll(b)
				if err := r.e.logCheckpoint(); err != nil {
					b.Fatal(err)
				}
			}
			_, _ = r.written(b)
			var wrote int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r.feed(b)
				r.roll(b)
				b.StartTimer()
				if err := r.e.logCheckpoint(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				n, _ := r.written(b)
				wrote += n
				b.StartTimer()
			}
			b.ReportMetric(float64(wrote)/float64(b.N), "bytes/op")
		})
	}
}
