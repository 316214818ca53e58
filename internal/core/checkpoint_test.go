package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/hfta"
	"repro/internal/stream"
)

// TestCheckpointRoundTrip: checkpoint mid-stream (at an epoch boundary),
// restore into a fresh engine, replay from the recorded position, and get
// exactly the answers of an uninterrupted run.
func TestCheckpointRoundTrip(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	opts := Options{M: 8000, Seed: 3}

	// Uninterrupted reference run.
	ref, err := New(pairSQL, groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	want := ref.AllResults()

	// First run: crash mid-epoch (no Finish) with the engine writing its
	// checkpoint at every boundary. The checkpoint the crash leaves behind
	// is the last closed epoch's; the boundary record itself is not counted
	// in its stream position and gets replayed on resume.
	ckpt := filepath.Join(t.TempDir(), "crash.ckpt")
	copts := opts
	copts.CheckpointPath = ckpt
	e1, err := New(pairSQL, groups, copts)
	if err != nil {
		t.Fatal(err)
	}
	const crashAt = 17000 // mid-epoch: 30000 records over 5 epochs
	if err := feedAll(e1, recs[:crashAt]); err != nil {
		t.Fatal(err)
	}
	if e1.Stats().Epochs == 0 {
		t.Fatal("crash point never crossed an epoch boundary")
	}

	// Restore into a fresh engine and replay the rest of the stream from
	// the recorded position.
	e2, err := New(pairSQL, groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	consumed, err := e2.RestoreCheckpointFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if consumed == 0 || consumed >= crashAt {
		t.Fatalf("restored stream position %d; want within (0, %d)", consumed, crashAt)
	}
	src := stream.NewSkipSource(stream.NewSliceSource(recs), consumed)
	if err := e2.Run(src); err != nil {
		t.Fatal(err)
	}
	if !hfta.Equal(e2.AllResults(), want) {
		t.Fatal("restored run's results differ from the uninterrupted run")
	}
	// Accounting survived too: every record of the stream ends up counted
	// exactly once across the crash.
	d := e2.Stats().Degradation
	if d.Offered != uint64(len(recs)) || d.Processed != uint64(len(recs)) {
		t.Errorf("restored accounting %+v; want %d offered and processed", d, len(recs))
	}
	if e2.Consumed() != uint64(len(recs)) {
		t.Errorf("restored consumed = %d; want %d", e2.Consumed(), len(recs))
	}
}

// TestCheckpointFileAtomic: WriteCheckpointFile leaves no temp droppings
// and the file restores cleanly.
func TestCheckpointFileAtomic(t *testing.T) {
	recs, groups := testWorkload(t, 20000)
	dir := t.TempDir()
	path := filepath.Join(dir, "engine.ckpt")
	e, err := New(pairSQL, groups, Options{M: 8000, Seed: 3, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "engine.ckpt" {
		t.Errorf("checkpoint dir contains %v; want only engine.ckpt", entries)
	}
	e2, err := New(pairSQL, groups, Options{M: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.RestoreCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsCorruptCheckpoints: truncated, corrupted, or
// mismatched checkpoints must fail with ErrBadCheckpoint, never panic or
// restore garbage.
func TestRestoreRejectsCorruptCheckpoints(t *testing.T) {
	recs, groups := testWorkload(t, 20000)
	e, err := New(pairSQL, groups, Options{M: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := feedAll(e, recs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	fresh := func() *Engine {
		e, err := New(pairSQL, groups, Options{M: 8000, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte("XXXX"), good[4:]...)},
		{"bad version", func() []byte {
			b := append([]byte(nil), good...)
			b[4] = 99
			return b
		}()},
		{"truncated header", good[:10]},
		{"truncated body", good[:len(good)-7]},
		{"flipped hash", func() []byte {
			b := append([]byte(nil), good...)
			b[5] ^= 0xff
			return b
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := fresh().Restore(bytes.NewReader(tc.data)); !errors.Is(err, ErrBadCheckpoint) {
				t.Errorf("err = %v; want ErrBadCheckpoint", err)
			}
		})
	}

	t.Run("different workload", func(t *testing.T) {
		other, err := New(pairSQL, groups, Options{M: 8000, Seed: 99}) // different seed
		if err != nil {
			t.Fatal(err)
		}
		if _, err := other.Restore(bytes.NewReader(good)); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("err = %v; want ErrBadCheckpoint for a different workload", err)
		}
	})

	t.Run("used engine", func(t *testing.T) {
		used := fresh()
		if err := feedOne(used, recs[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := used.Restore(bytes.NewReader(good)); err == nil {
			t.Error("restore into a used engine accepted")
		}
	})

	t.Run("good checkpoint still restores", func(t *testing.T) {
		if _, err := fresh().Restore(bytes.NewReader(good)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCheckpointFileCrashLeavesOneSibling: the image is staged in the one
// sibling path+".tmp". However many writes die between the write and the
// rename, one stray file exists, the previous checkpoint is untouched, and
// the next write that completes consumes the stray. A write that fails
// removes its own.
func TestCheckpointFileCrashLeavesOneSibling(t *testing.T) {
	recs, groups := testWorkload(t, 20000)
	e, err := New(pairSQL, groups, Options{M: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "engine.ckpt")
	names := func() (out []string) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, en := range entries {
			out = append(out, en.Name())
		}
		return out
	}
	feed := func(from, to int) {
		if err := feedAll(e, recs[from:to]); err != nil {
			t.Fatal(err)
		}
	}
	feed(0, 5000)
	if err := e.WriteCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for kill := 1; kill <= 2; kill++ {
		feed(5000*kill, 5000*(kill+1))
		if err := e.writeCheckpointTmp(path + ".tmp"); err != nil { // dies before the rename
			t.Fatal(err)
		}
		if got := names(); !reflect.DeepEqual(got, []string{"engine.ckpt", "engine.ckpt.tmp"}) {
			t.Fatalf("after %d killed writes the directory holds %v", kill, got)
		}
	}
	if now, _ := os.ReadFile(path); !bytes.Equal(now, prev) {
		t.Fatal("a write that never renamed changed the checkpoint")
	}
	if err := e.WriteCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	if got := names(); !reflect.DeepEqual(got, []string{"engine.ckpt"}) {
		t.Fatalf("after a completed write the directory holds %v", got)
	}
	e2, err := New(pairSQL, groups, Options{M: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if consumed, err := e2.RestoreCheckpointFile(path); err != nil || consumed != e.Consumed() {
		t.Fatalf("restore after the stray was consumed: position %d (want %d), err %v", consumed, e.Consumed(), err)
	}

	// The rename fails (the target is a non-empty directory): the staged
	// image must not stay behind.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteCheckpointFile(blocked); err == nil {
		t.Fatal("renaming over a non-empty directory succeeded")
	}
	if got := names(); !reflect.DeepEqual(got, []string{"blocked", "engine.ckpt"}) {
		t.Fatalf("after a failed write the directory holds %v", got)
	}
}

// writeCheckpointTmp is WriteCheckpointFile killed before its rename.
func (e *Engine) writeCheckpointTmp(tmp string) error {
	f, err := e.stageImage(tmp)
	if err != nil {
		return err
	}
	return f.Close()
}

// TestNewRefusesAggregatesTheCheckpointCannotHold: a checkpoint row writes
// its aggregate count and a window row its sketch-slot count as one byte
// each, so New takes at most 255 of either; an engine at the limit
// restores its own image and re-serializes it byte for byte.
func TestNewRefusesAggregatesTheCheckpointCannotHold(t *testing.T) {
	recs, groups := fuzzWorkload(t)
	workload := func(agg string, n int) []string {
		cols := make([]string, n)
		for i := range cols {
			cols[i] = fmt.Sprintf("%s as a%d", agg, i)
		}
		return []string{"select A, B, " + strings.Join(cols, ", ") + " from R group by A, B, time/10"}
	}
	cases := []struct {
		name, agg string
		n         int
	}{
		{"exact/255", "sum(C)", 255},
		{"exact/256", "sum(C)", 256},
		{"sketch/255", "count_distinct(C)", 255},
		{"sketch/256", "count_distinct(C)", 256},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sqls := workload(tc.agg, tc.n)
			opts := Options{M: 600, Seed: 3}
			e, err := New(sqls, groups, opts)
			if tc.n > ckptMaxAggs {
				if err == nil || !strings.Contains(err.Error(), "at most 255") {
					t.Fatalf("New with %d of %s: err = %v; want a refusal naming the limit of 255", tc.n, tc.agg, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := feedAll(e, recs[:1200]); err != nil {
				t.Fatal(err)
			}
			if e.Stats().Epochs < 2 || len(e.AllResults()) == 0 {
				t.Fatal("no closed epoch with rows; the image holds no row to check")
			}
			var img, again bytes.Buffer
			if err := e.Checkpoint(&img); err != nil {
				t.Fatal(err)
			}
			r, err := New(sqls, groups, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Restore(bytes.NewReader(img.Bytes())); err != nil {
				t.Fatalf("restoring its own image: %v", err)
			}
			if err := r.Checkpoint(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), img.Bytes()) {
				t.Error("restored engine does not re-serialize its image byte-identically")
			}
		})
	}
}

// TestNewRefusesWindowedQueriesAPaneCannotHold: a checkpoint pane writes
// its relation count as one byte, so New takes at most 255 windowed or
// sketch queries; an engine at the limit restores its own image and
// re-serializes it byte for byte.
func TestNewRefusesWindowedQueriesAPaneCannotHold(t *testing.T) {
	const names = "ABCDEFGHI"
	var rels []string
	for mask := 0; mask < 1<<len(names); mask++ {
		if k := bits.OnesCount(uint(mask)); k < 3 || k > 5 {
			continue
		}
		var cols []string
		for i := range names {
			if mask&(1<<i) != 0 {
				cols = append(cols, names[i:i+1])
			}
		}
		rels = append(rels, strings.Join(cols, ", "))
	}
	workload := func(n int, agg, window string) []string {
		sqls := make([]string, n)
		for i, g := range rels[:n] {
			sqls[i] = "select " + g + ", " + agg + " from R group by " + g + ", time/10" + window
		}
		return sqls
	}
	rng := rand.New(rand.NewSource(11))
	u, err := gen.UniformUniverse(rng, stream.MustSchema(len(names)), 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Uniform(rng, u, 600, 30)
	// No phantoms: the image under test is the panes', and GCSL over a
	// 255-query feeding graph would take most of the test's time.
	opts := Options{M: 20000, Seed: 3, Planner: NoPhantomPlanner}
	for _, sqls := range [][]string{
		workload(256, "count(*) as cnt", " window 2 slide 1"),
		workload(256, "count_distinct(A) as d", ""),
	} {
		if _, err := NewFromSample(sqls, recs, opts); err == nil || !strings.Contains(err.Error(), "at most 255") {
			t.Fatalf("New with 256 queries like %q: err = %v; want a refusal naming the limit of 255", sqls[0], err)
		}
	}

	sqls := workload(255, "count(*) as cnt", " window 2 slide 1")
	e, err := NewFromSample(sqls, recs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedAll(e, recs); err != nil {
		t.Fatal(err)
	}
	var img, again bytes.Buffer
	if err := e.Checkpoint(&img); err != nil {
		t.Fatal(err)
	}
	r, err := NewFromSample(sqls, recs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Restore(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatalf("restoring its own image: %v", err)
	}
	if err := r.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), img.Bytes()) {
		t.Error("restored engine does not re-serialize its image byte-identically")
	}
}
