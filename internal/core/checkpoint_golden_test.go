package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"reflect"

	"repro/internal/hashtab"
	"repro/internal/hfta"
	"repro/internal/stream"
)

// Golden checkpoint images. plain.ckpt and sharded.ckpt hold state the
// engine wrote BEFORE the hash-table layout switched to the fingerprint-
// tagged split arrays, so these tests prove the compatibility claim the
// checkpoint format makes: images never serialize table internals (they
// are written at epoch boundaries, tables empty), so a layout change must
// restore old images onto the new tables with nothing lost — same resumed
// answers, and a re-serialized checkpoint byte-identical to the original.
// When the format folded into one version, each was re-framed once, its
// state untouched: version byte 4 and an empty durability footer. No
// fresh run reproduces that state, so nothing regenerates them.

const goldenDir = "testdata/ckpt"

// goldenPlainOpts is the unsharded, non-shedding deployment of the plain
// golden image.
func goldenPlainOpts() Options { return Options{M: 8000, Seed: 3} }

// goldenShardedOpts is the sharded-and-shedding deployment of the
// sharded golden image.
func goldenShardedOpts() Options {
	return Options{
		M: 8000, Seed: 3, Shards: 4,
		Budget: 900, Shed: NewUniformShed(0.5, 99),
	}
}

// goldenCrashAt is the record index the golden run "crashed" at
// (mid-epoch, past several boundaries; see TestCheckpointRoundTrip).
const goldenCrashAt = 17000

func goldenPath(name string) string { return filepath.Join(goldenDir, name) }

// TestGoldenCheckpointRestore restores each pre-layout-change image onto
// the current table layout, replays the remaining stream, and requires
// the answers of an uninterrupted run. The whole matrix runs once per
// tag-scan kernel: a restored table must behave identically whether the
// replay probes through the vector kernel or the portable one.
func TestGoldenCheckpointRestore(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	cases := []struct {
		file string
		opts Options
	}{
		{"plain.ckpt", goldenPlainOpts()},
	}
	defer hashtab.SetSIMD(hashtab.SIMDEnabled())
	kernels := []bool{false}
	if hashtab.SIMDAvailable() {
		kernels = append(kernels, true)
	}
	for _, simd := range kernels {
		hashtab.SetSIMD(simd)
		for _, tc := range cases {
			t.Run(tc.file+"/kernel="+hashtab.KernelName(), func(t *testing.T) {
				// Reference: the same deployment run uninterrupted.
				ref, err := New(pairSQL, groups, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.Run(stream.NewSliceSource(recs)); err != nil {
					t.Fatal(err)
				}
				want := ref.AllResults()

				e, err := New(pairSQL, groups, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				consumed, err := e.RestoreCheckpointFile(goldenPath(tc.file))
				if err != nil {
					t.Fatal(err)
				}
				if consumed == 0 || consumed >= goldenCrashAt {
					t.Fatalf("restored stream position %d, want in (0, %d)", consumed, goldenCrashAt)
				}
				src := stream.NewSkipSource(stream.NewSliceSource(recs), consumed)
				if err := e.Run(src); err != nil {
					t.Fatal(err)
				}
				if !hfta.Equal(e.AllResults(), want) {
					t.Error("resumed results differ from uninterrupted run")
				}
				refDeg := ref.Stats().Degradation
				resDeg := e.Stats().Degradation
				if refDeg != resDeg {
					t.Errorf("resumed degradation ledger %+v, want %+v", resDeg, refDeg)
				}
			})
		}
	}
}

// TestGoldenShardedCheckpointRestore covers the sharded golden. Its
// image carries a shed-policy history (UniformShed EWMA and RNG
// position, budget-split weights, a degradation ledger with drops) that
// the pre-group-layout engine accumulated: the old one-slot tables made
// every collision an eviction transfer, and those transfers exhausted
// the 900-unit budget. The grouped tables do the same work in far fewer
// weighted operations, so an uninterrupted run of this deployment today
// never sheds — no fresh run can reproduce the image's history, and
// comparing against one would pin the old cost physics, not checkpoint
// compatibility. What the golden must keep proving is that the
// pre-layout image restores losslessly and remains a valid crash point:
// resuming it straight through and resuming it with a second
// crash+restore in between must emit identically and end in identical
// ledgers, with the carried policy state round-tripping through the new
// engine's own checkpoints. (Byte-level restore fidelity is pinned
// separately by TestGoldenCheckpointByteIdentity.)
func TestGoldenShardedCheckpointRestore(t *testing.T) {
	recs, groups := testWorkload(t, 30000)
	golden := goldenPath("sharded.ckpt")

	// Reference: restore the golden image and run the remainder straight.
	wantEmit := emissionMap{}
	ropts := goldenShardedOpts()
	ropts.OnResults = collectEmissions(t, wantEmit)
	ref, err := New(pairSQL, groups, ropts)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ref.RestoreCheckpointFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if restored == 0 || restored >= goldenCrashAt {
		t.Fatalf("restored stream position %d, want in (0, %d)", restored, goldenCrashAt)
	}
	if d := ref.Stats().Degradation; d.Dropped == 0 {
		t.Fatal("golden image carried no shed history; the sharded golden is vacuous")
	}
	if err := ref.Run(stream.NewSkipSource(stream.NewSliceSource(recs), restored)); err != nil {
		t.Fatal(err)
	}
	want := ref.AllResults()

	// Crash-again run: restore the same image, checkpoint at every
	// boundary, die mid-epoch past the restore point.
	ckpt := filepath.Join(t.TempDir(), "resumed.ckpt")
	copts := goldenShardedOpts()
	copts.CheckpointPath = ckpt
	gotEmit := emissionMap{}
	copts.OnResults = collectEmissions(t, gotEmit)
	e1, err := New(pairSQL, groups, copts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.RestoreCheckpointFile(golden); err != nil {
		t.Fatal(err)
	}
	const crashAgainAt = 25000
	if err := feedAll(e1, recs[restored:crashAgainAt]); err != nil {
		t.Fatal(err)
	}
	// No Finish: the process is gone.

	// Resume from the new engine's own checkpoint of the restored state.
	popts := goldenShardedOpts()
	popts.OnResults = collectEmissions(t, gotEmit)
	e2, err := New(pairSQL, groups, popts)
	if err != nil {
		t.Fatal(err)
	}
	consumed, err := e2.RestoreCheckpointFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if consumed <= restored || consumed > crashAgainAt {
		t.Fatalf("re-crash restored position %d, want in (%d, %d]", consumed, restored, crashAgainAt)
	}
	if err := e2.Run(stream.NewSkipSource(stream.NewSliceSource(recs), consumed)); err != nil {
		t.Fatal(err)
	}

	if len(gotEmit) != len(wantEmit) {
		t.Fatalf("crash+resume emitted %d (query, epoch) results; straight resume emitted %d",
			len(gotEmit), len(wantEmit))
	}
	for k, w := range wantEmit {
		if gotEmit[k] != w {
			t.Errorf("epoch %d of %v differs from the straight resume", k.epoch, k.rel)
		}
	}
	if !hfta.Equal(e2.AllResults(), want) {
		t.Error("re-crashed results differ from the straight resume")
	}
	dRef, dGot := ref.Stats().Degradation, e2.Stats().Degradation
	if dRef != dGot {
		t.Errorf("re-crashed cumulative ledger %+v; straight resume %+v", dGot, dRef)
	}
	refShards, gotShards := ref.ShardDegradations(), e2.ShardDegradations()
	for i := range refShards {
		if refShards[i] != gotShards[i] {
			t.Errorf("shard %d re-crashed ledger %+v; straight resume %+v", i, gotShards[i], refShards[i])
		}
	}
}

// TestGoldenCheckpointByteIdentity proves the stronger claim: an engine
// restored from a pre-layout-change image serializes back to the exact
// bytes of the golden — nothing in the checkpoint state was reinterpreted
// by the new table layout.
func TestGoldenCheckpointByteIdentity(t *testing.T) {
	_, groups := testWorkload(t, 30000)
	cases := []struct {
		file string
		opts Options
	}{
		{"plain.ckpt", goldenPlainOpts()},
		{"sharded.ckpt", goldenShardedOpts()},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(tc.file))
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(pairSQL, groups, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Restore(bytes.NewReader(want)); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := e.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("re-serialized checkpoint differs from golden %s", tc.file)
			}
		})
	}
}

// --- windowed goldens ---

// goldenWindowedSQL is the windowed workload of the windowed golden images:
// overlapping 3/2 windows with all three sketch kinds, so the images
// carry live panes with serialized sketch partials mid-window.
func goldenWindowedSQL() []string { return windowSQL(3, 2) }

// The two windowed goldens are the same run at the same crash point.
// windowed_v4.ckpt was written when an HLL had one wire form, so every
// count_distinct blob in it is the dense register array; it is a
// read-compatibility pin no release can write again. The engine now
// writes windowed_v4_sparse.ckpt: the same panes with each HLL in the
// shorter of its two forms. Both were written in the format's version 4
// (the "v4" in their names), and no byte of either changed when the
// format folded into that one version. Rewrite the sparse one, only when
// the format changes, with
//
//	MAGG_WRITE_GOLDEN=1 go test -run TestGoldenWindowedCheckpoint ./internal/core
const (
	goldenWindowedDense  = "windowed_v4.ckpt"
	goldenWindowedSparse = "windowed_v4_sparse.ckpt"
)

func maybeWriteGoldenWindowed(t *testing.T) {
	t.Helper()
	if os.Getenv("MAGG_WRITE_GOLDEN") == "" {
		return
	}
	recs, _ := testWorkload(t, 30000)
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	copts := goldenPlainOpts()
	copts.CheckpointPath = filepath.Join(t.TempDir(), "golden.ckpt")
	e, err := NewFromSample(goldenWindowedSQL(), recs, copts)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedAll(e, recs[:goldenCrashAt]); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Epochs == 0 {
		t.Fatal("windowed golden run never crossed an epoch boundary")
	}
	r, err := NewFromSample(goldenWindowedSQL(), recs, goldenPlainOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RestoreCheckpointFile(copts.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCheckpointFile(goldenPath(goldenWindowedSparse)); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", goldenPath(goldenWindowedSparse))
}

// TestGoldenWindowedCheckpoint pins the window section and both HLL wire
// forms: each golden image must keep restoring (with its panes and sketch
// blobs carried verbatim, proven by byte-identical re-serialization) and
// resuming to the same window output as an uninterrupted run.
func TestGoldenWindowedCheckpoint(t *testing.T) {
	maybeWriteGoldenWindowed(t)
	recs, _ := testWorkload(t, 30000)
	ref, err := NewFromSample(goldenWindowedSQL(), recs, goldenPlainOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{}
	for _, name := range []string{goldenWindowedDense, goldenWindowedSparse} {
		t.Run(name, func(t *testing.T) {
			img, err := os.ReadFile(goldenPath(name))
			if err != nil {
				t.Fatal(err)
			}
			if img[4] != 4 {
				t.Fatalf("windowed golden version = %d; want 4", img[4])
			}
			sizes[name] = len(img)
			e, err := NewFromSample(goldenWindowedSQL(), recs, goldenPlainOpts())
			if err != nil {
				t.Fatal(err)
			}
			consumed, err := e.Restore(bytes.NewReader(img))
			if err != nil {
				t.Fatal(err)
			}
			if consumed == 0 || consumed >= goldenCrashAt {
				t.Fatalf("restored stream position %d, want in (0, %d)", consumed, goldenCrashAt)
			}
			var buf bytes.Buffer
			if err := e.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), img) {
				t.Error("restored engine does not re-serialize the windowed golden byte-identically")
			}
			if err := e.Run(stream.NewSkipSource(stream.NewSliceSource(recs), consumed)); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(e.WindowLedgers(), ref.WindowLedgers()) {
				t.Error("resumed window ledgers differ from the uninterrupted run")
			}
			if !reflect.DeepEqual(e.WindowResults(), ref.WindowResults()) {
				t.Error("resumed windowed rows differ from the uninterrupted run")
			}
		})
	}
	if d, s := sizes[goldenWindowedDense], sizes[goldenWindowedSparse]; s == 0 || s >= d {
		t.Errorf("sparse golden is %d bytes, dense golden %d: the sparse image holds no sparse blobs", s, d)
	}
}
