package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/epochstore"
	"repro/internal/feedgraph"
	"repro/internal/gen"
	"repro/internal/stream"
)

// The checkpoint decoder parses machine state from a file that may be
// truncated, corrupted, or adversarial. Arbitrary bytes must never panic
// it: they either restore cleanly or fail with ErrBadCheckpoint.

// fuzzSQL is a deliberately tiny workload so the fuzzer can construct a
// fresh engine per input cheaply.
var fuzzSQL = []string{
	"select A, B, count(*) as cnt from R group by A, B, time/10",
	"select B, C, count(*) as cnt from R group by B, C, time/10",
}

func fuzzWorkload(tb testing.TB) ([]stream.Record, feedgraph.GroupCounts) {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	schema := stream.MustSchema(3)
	u, err := gen.UniformUniverse(rng, schema, 60, 12)
	if err != nil {
		tb.Fatal(err)
	}
	recs := gen.Uniform(rng, u, 2000, 50)
	queries := []attr.Set{attr.MustParseSet("AB"), attr.MustParseSet("BC")}
	groups, err := EstimateGroups(recs, queries)
	if err != nil {
		tb.Fatal(err)
	}
	return recs, groups
}

// fuzzOptions configures the engine whose workload hash the images carry:
// sharded and shedding with a stateful policy, so the full v2 section
// (shed words, shard weights, ledgers, history) is exercised.
func fuzzOptions() Options {
	return Options{M: 600, Seed: 3, Shards: 2, Budget: 400, Shed: NewUniformShed(0.5, 7)}
}

// fuzzImages runs the workload and returns a matching v2 and v1 image
// written at the same state.
func fuzzImages(tb testing.TB) (v2, v1 []byte) {
	tb.Helper()
	recs, groups := fuzzWorkload(tb)
	e, err := New(fuzzSQL, groups, fuzzOptions())
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range recs {
		if err := e.Process(r); err != nil {
			tb.Fatal(err)
		}
	}
	var b2, b1 bytes.Buffer
	if err := e.Checkpoint(&b2); err != nil {
		tb.Fatal(err)
	}
	if err := e.checkpointVersion(&b1, ckptVersionV1); err != nil {
		tb.Fatal(err)
	}
	return b2.Bytes(), b1.Bytes()
}

// fuzzImageV3 writes the same engine state as a v3 image: a store is
// attached, so the checkpoint carries the durability footer.
func fuzzImageV3(tb testing.TB) []byte {
	tb.Helper()
	recs, groups := fuzzWorkload(tb)
	st, err := epochstore.Open(filepath.Join(tb.TempDir(), "store"), epochstore.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	defer st.Close()
	opts := fuzzOptions()
	opts.Store = st
	e, err := New(fuzzSQL, groups, opts)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range recs {
		if err := e.Process(r); err != nil {
			tb.Fatal(err)
		}
	}
	e.SyncStore() // settle the ledger before it is snapshotted
	var b bytes.Buffer
	if err := e.Checkpoint(&b); err != nil {
		tb.Fatal(err)
	}
	e.persist.stop()
	return b.Bytes()
}

// fuzzWinSQL is the windowed variant of the fuzz workload: sliding 3/2
// windows with both sketch kinds, so v4 images carry panes with HLL and
// t-digest blobs.
var fuzzWinSQL = []string{
	"select A, B, count(*) as cnt, count_distinct(C) as uniq, percentile(C, 90) as p90 from R group by A, B, time/10 window 3 slide 2",
	"select B, C, count(*) as cnt, count_distinct(C) as uniq, percentile(C, 90) as p90 from R group by B, C, time/10 window 3 slide 2",
}

func fuzzWinOptions() Options { return Options{M: 600, Seed: 3} }

// fuzzImageV4 writes a v4 image: the windowed workload run to the same
// stream position, panes and sketch blobs included.
func fuzzImageV4(tb testing.TB) []byte {
	tb.Helper()
	recs, groups := fuzzWorkload(tb)
	e, err := New(fuzzWinSQL, groups, fuzzWinOptions())
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range recs {
		if err := e.Process(r); err != nil {
			tb.Fatal(err)
		}
	}
	var b bytes.Buffer
	if err := e.Checkpoint(&b); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// fuzzLog runs the fuzz workload through an engine keeping a checkpoint
// log — first restored from the image from, when given — and returns the
// log split into its base image and the frames appended after it.
func fuzzLog(tb testing.TB, sqls []string, opts Options, from []byte) (image []byte, frames [][]byte) {
	tb.Helper()
	recs, groups := fuzzWorkload(tb)
	opts.CheckpointPath = filepath.Join(tb.TempDir(), "fuzz.ckpt")
	e, err := New(sqls, groups, opts)
	if err != nil {
		tb.Fatal(err)
	}
	var skip uint64
	if from != nil {
		if skip, err = e.Restore(bytes.NewReader(from)); err != nil {
			tb.Fatal(err)
		}
	}
	for _, r := range recs[skip:] {
		if err := e.Process(r); err != nil {
			tb.Fatal(err)
		}
	}
	log, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		tb.Fatal(err)
	}
	image, rest := log[:e.ckptLog.image], log[e.ckptLog.image:]
	for len(rest) > 0 {
		n := 8 + int(binary.LittleEndian.Uint32(rest))
		frames, rest = append(frames, rest[:n]), rest[n:]
	}
	if len(frames) == 0 {
		tb.Fatal("the fuzz workload's log holds no frame after its last image")
	}
	return image, frames
}

// fuzzLogV3 is fuzzLog over a v3 base: an engine with no store restored
// from a v3 image carries the restored durability ledger, and so writes v3
// — deterministically, unlike an engine whose persister runs alongside.
func fuzzLogV3(tb testing.TB) (image []byte, frames [][]byte) {
	tb.Helper()
	recs, groups := fuzzWorkload(tb)
	st, err := epochstore.Open(filepath.Join(tb.TempDir(), "store"), epochstore.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	defer st.Close()
	opts := fuzzOptions()
	opts.Store = st
	e, err := New(fuzzSQL, groups, opts)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range recs[:700] { // into the second of five epochs
		if err := e.Process(r); err != nil {
			tb.Fatal(err)
		}
	}
	e.SyncStore()
	var v3 bytes.Buffer
	if err := e.Checkpoint(&v3); err != nil {
		tb.Fatal(err)
	}
	e.persist.stop()
	return fuzzLog(tb, fuzzSQL, fuzzOptions(), v3.Bytes())
}

// logForms returns a log in the four forms the corpus covers: whole, torn
// inside its last frame, with that frame's checksum failing, and with that
// frame repeated (the copy does not extend the state the first produced).
func logForms(image []byte, frames [][]byte) [][]byte {
	whole := slices.Concat(append([][]byte{image}, frames...)...)
	last := frames[len(frames)-1]
	flipped := bytes.Clone(whole)
	flipped[len(flipped)-1] ^= 0x5a
	return [][]byte{whole, whole[:len(whole)-3], flipped, slices.Concat(whole, last)}
}

// fuzzSeeds enumerates the seed inputs shared by the fuzz target and the
// checked-in corpus generator.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	v2, v1 := fuzzImages(tb)
	v3 := fuzzImageV3(tb)
	v4 := fuzzImageV4(tb)
	flip := func(img []byte, off int, xor byte) []byte {
		b := append([]byte(nil), img...)
		b[off] ^= xor
		return b
	}
	seeds := [][]byte{
		v2,
		v1,
		nil,
		[]byte(ckptMagic),
		[]byte("XXXX"),
		v2[:10],                 // truncated header
		v2[:len(v2)-5],          // truncated v2 tail
		v1[:len(v1)-5],          // truncated v1 body
		v2[:len(v1)],            // v2 header with the v2 section sheared off
		flip(v2, 4, 0xff),       // mangled version byte
		flip(v2, 5, 0xff),       // flipped workload hash
		flip(v1, 4, 3),          // v1 image relabeled as an unknown version
		flip(v2, len(v1), 0xff), // corrupted shed-word count
		v3,
		v3[:len(v3)-3],            // truncated durability footer
		flip(v3, len(v3)-4, 0xff), // mangled unpersisted-epoch count/entry
		flip(v2, 4, 1),            // v2 payload relabeled v3: footer missing
		v4,
		v4[:len(v4)-9],            // truncated window section
		flip(v4, 4, 7),            // v4 relabeled as v3: pane state sheared off
		flip(v4, len(v4)-1, 0xff), // mangled window-section tail
		flip(v4, len(v4)/2, 0xff), // corrupted pane body
	}
	// Checkpoint logs: delta frames after a v2, a v3 and a v4 image.
	seeds = append(seeds, logForms(fuzzLog(tb, fuzzSQL, fuzzOptions(), nil))...)
	seeds = append(seeds, logForms(fuzzLogV3(tb))...)
	return append(seeds, logForms(fuzzLog(tb, fuzzWinSQL, fuzzWinOptions(), nil))...)
}

// FuzzCheckpointDecode: arbitrary bytes fed to Restore must never panic.
// They either fail (with ErrBadCheckpoint for anything malformed) or
// restore an engine that can keep processing records.
func FuzzCheckpointDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	recs, groups := fuzzWorkload(f)
	probe := recs[:50]
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode into both deployment shapes: the sharded tumbling engine
		// (v1–v3 sections) and the windowed engine (v4 pane section).
		engines := []func() (*Engine, error){
			func() (*Engine, error) { return New(fuzzSQL, groups, fuzzOptions()) },
			func() (*Engine, error) { return New(fuzzWinSQL, groups, fuzzWinOptions()) },
		}
		for _, mk := range engines {
			e, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Restore(bytes.NewReader(data)); err != nil {
				continue
			}
			// Whatever the decoder accepted must leave a usable engine:
			// feed it records and drain results without panicking.
			for _, r := range probe {
				if err := e.Process(r); err != nil {
					t.Fatalf("restored engine cannot process: %v", err)
				}
			}
			if err := e.Finish(); err != nil {
				t.Fatalf("restored engine cannot finish: %v", err)
			}
			_ = e.AllResults()
			_ = e.WindowResults()
			_ = e.Stats()
		}
	})
}

// TestRestoreRejectsCorruptV2 covers the v2 framing the generic corrupt
// table (checkpoint_test.go) does not reach: the shed-state, flow-length,
// and shard sections, plus a prefix sweep across the whole image.
func TestRestoreRejectsCorruptV2(t *testing.T) {
	v2, v1 := fuzzImages(t)
	_, groups := fuzzWorkload(t)
	fresh := func() *Engine {
		e, err := New(fuzzSQL, groups, fuzzOptions())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	mustReject := func(t *testing.T, data []byte) {
		t.Helper()
		if _, err := fresh().Restore(bytes.NewReader(data)); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("err = %v; want ErrBadCheckpoint", err)
		}
	}

	// The v2 section starts where the v1 payload ends (same engine state,
	// same prefix). Locate its fields from the known section layout.
	v2Off := len(v1)
	nWords := binary.LittleEndian.Uint32(v2[v2Off:])
	if nWords != 2 {
		t.Fatalf("expected 2 shed words (UniformShed), image has %d; update the offsets", nWords)
	}
	flowOff := v2Off + 4 + int(nWords)*8
	nFlows := binary.LittleEndian.Uint32(v2[flowOff:])
	shardOff := flowOff + 4 + int(nFlows)*12

	put32 := func(img []byte, off int, v uint32) []byte {
		b := append([]byte(nil), img...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	put64 := func(img []byte, off int, v uint64) []byte {
		b := append([]byte(nil), img...)
		binary.LittleEndian.PutUint64(b[off:], v)
		return b
	}

	t.Run("huge shed-word count", func(t *testing.T) {
		mustReject(t, put32(v2, v2Off, 1<<31))
	})
	t.Run("huge flow count", func(t *testing.T) {
		mustReject(t, put32(v2, flowOff, 1<<31))
	})
	t.Run("huge shard count", func(t *testing.T) {
		mustReject(t, put32(v2, shardOff, 1<<31))
	})
	t.Run("shard count mismatch", func(t *testing.T) {
		// 0 shards parses but contradicts the 2-shard engine.
		mustReject(t, put32(v2, shardOff, 0))
	})
	t.Run("shard weight NaN", func(t *testing.T) {
		mustReject(t, put64(v2, shardOff+4, math.Float64bits(math.NaN())))
	})
	t.Run("shard position word is not state", func(t *testing.T) {
		// The word after shard 0's weight is that shard's position. It is
		// derived (cumulative Offered, plus the open epoch's in this
		// mid-epoch image), so Restore reads past it: an image carrying
		// another value restores to the same engine, whose positions are
		// its ledgers' Offered.
		want := fresh()
		if _, err := want.Restore(bytes.NewReader(v2)); err != nil {
			t.Fatal(err)
		}
		got := fresh()
		routed := binary.LittleEndian.Uint64(v2[shardOff+12:])
		if _, err := got.Restore(bytes.NewReader(put64(v2, shardOff+12, routed+12345))); err != nil {
			t.Fatalf("image with a different position word rejected: %v", err)
		}
		if g, w := got.ShardPositions(), want.ShardPositions(); !slices.Equal(g, w) || g[0] != got.ShardDegradations()[0].Offered || g[0] == 0 {
			t.Errorf("restored positions %v; want %v, each shard's cumulative Offered", g, w)
		}
	})
	t.Run("shed rate out of range", func(t *testing.T) {
		// First shed word is the UniformShed rate; 2.0 is not a probability.
		mustReject(t, put64(v2, v2Off+4, math.Float64bits(2.0)))
	})
	t.Run("v1 payload relabeled v2", func(t *testing.T) {
		// Claiming version 2 obliges the image to carry the v2 section.
		b := append([]byte(nil), v1...)
		b[4] = ckptVersionV3
		mustReject(t, b)
	})

	t.Run("global history differs from its shard rows", func(t *testing.T) {
		// The history count follows the header, the scalars and the
		// cumulative ledger; each entry is epoch u32 + four u64 counters.
		histOff := len(ckptMagic) + 1 + 8 + 8 + 4*8 + 3*8 + 1 + 4 + 8 + 36
		if n := binary.LittleEndian.Uint32(v2[histOff:]); n == 0 {
			t.Fatal("image has no closed epoch; the test is vacuous")
		}
		offered := histOff + 4 + 4
		mustReject(t, put64(v2, offered, binary.LittleEndian.Uint64(v2[offered:])+1))
		mustReject(t, put32(v2, histOff+4, binary.LittleEndian.Uint32(v2[histOff+4:])+1))
	})

	t.Run("prefix sweep", func(t *testing.T) {
		// Every strict prefix is a truncation and must be rejected. Sample
		// with a stride (plus the section boundaries) to keep it fast; the
		// fuzz target covers the space continuously.
		offsets := []int{0, 1, 4, 5, 12, v2Off - 1, v2Off, flowOff, shardOff, len(v2) - 1}
		for off := 13; off < len(v2); off += 97 {
			offsets = append(offsets, off)
		}
		for _, off := range offsets {
			if off < 0 || off >= len(v2) {
				continue
			}
			mustReject(t, v2[:off])
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus for
// FuzzCheckpointDecode when run with MAGG_WRITE_CORPUS=1. The files give
// CI's short-mode fuzz run real checkpoint framing to start from without
// having to fuzz from scratch.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("MAGG_WRITE_CORPUS") == "" {
		t.Skip("set MAGG_WRITE_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range fuzzSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreRejectsCorruptV4 covers the v4 window-section framing:
// corrupt pane counts, blob sizes, blob bytes, stale pane epochs, and
// truncations must all reject with ErrBadCheckpoint, and a v4 image
// relabeled as v3 must not silently shed its pane state.
func TestRestoreRejectsCorruptV4(t *testing.T) {
	recs, groups := fuzzWorkload(t)
	e, err := New(fuzzWinSQL, groups, fuzzWinOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := e.Process(r); err != nil {
			t.Fatal(err)
		}
	}
	var b4, b3 bytes.Buffer
	if err := e.Checkpoint(&b4); err != nil {
		t.Fatal(err)
	}
	// The v4 section starts where a v3 serialization of the identical
	// state ends (same prefix, different version byte).
	if err := e.checkpointVersion(&b3, ckptVersionV3); err != nil {
		t.Fatal(err)
	}
	img := b4.Bytes()
	if img[4] != ckptVersion {
		t.Fatalf("windowed image version = %d; want %d", img[4], ckptVersion)
	}
	v4Off := b3.Len()
	if e.winComposer.Next() == 0 || e.winComposer.PaneCount() == 0 {
		t.Fatal("fuzz image carries no closed windows or panes; the corrupt-v4 suite is vacuous")
	}

	fresh := func() *Engine {
		f, err := New(fuzzWinSQL, groups, fuzzWinOptions())
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	mustReject := func(t *testing.T, data []byte) {
		t.Helper()
		if _, err := fresh().Restore(bytes.NewReader(data)); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("err = %v; want ErrBadCheckpoint", err)
		}
	}
	get32 := func(off int) uint32 { return binary.LittleEndian.Uint32(img[off:]) }
	put32 := func(off int, v uint32) []byte {
		b := append([]byte(nil), img...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	flip := func(off int, xor byte) []byte {
		b := append([]byte(nil), img...)
		b[off] ^= xor
		return b
	}

	// Walk the v4 section to the first pane's first sketch blob. Layout:
	// size, slide | nSaggs ×(kind,input,q) | prec, comp | next | panes.
	arity := 2            // both fuzz queries group two attributes
	nAggs := len(e.aggs)  // exact slots per row
	off := v4Off + 8      // size, slide
	nS := int(get32(off)) // sketch agg count
	off += 4 + nS*17      // kind u8 + input i64 + q f64
	off += 9              // precision u8 + compression f64
	off += 8              // window cursor
	nPanesOff := off
	if get32(nPanesOff) == 0 {
		t.Fatal("image carries zero panes")
	}
	off += 4
	paneEpochOff := off
	off += 4 + 32 // epoch + stats
	if img[off] == 0 {
		t.Fatal("first pane names no relations")
	}
	off++    // nRels
	off += 4 // rel
	nRows := int(get32(off))
	off += 4 + nRows*(arity*4+nAggs*8)
	nSk := int(get32(off))
	if nSk == 0 {
		t.Fatal("first pane relation carries no sketch blobs")
	}
	off += 4
	off += arity * 4 // first blob's key
	blobLenOff := off
	blobOff := off + 4

	t.Run("pane count over cap", func(t *testing.T) {
		mustReject(t, put32(nPanesOff, ckptMaxPanes+1))
	})
	t.Run("blob size over cap", func(t *testing.T) {
		mustReject(t, put32(blobLenOff, ckptMaxBlob+1))
	})
	t.Run("corrupt sketch blob", func(t *testing.T) {
		mustReject(t, flip(blobOff, 0xff))
	})
	t.Run("stale pane epoch", func(t *testing.T) {
		// An epoch older than the live window range must be rejected, not
		// silently resurrected.
		mustReject(t, put32(paneEpochOff, 0))
	})
	t.Run("v4 relabeled v3", func(t *testing.T) {
		mustReject(t, flip(4, ckptVersion^ckptVersionV3))
	})
	t.Run("window section truncations", func(t *testing.T) {
		// Sample with a stride plus the section boundaries; the fuzz
		// target covers the space continuously.
		cuts := []int{v4Off, nPanesOff, paneEpochOff, blobLenOff, blobOff, len(img) - 1}
		for cut := v4Off; cut < len(img); cut += 211 {
			cuts = append(cuts, cut)
		}
		for _, cut := range cuts {
			mustReject(t, img[:cut])
		}
	})
}

// TestFuzzCorpusCoversCurrentVersion fails the build when the checked-in
// fuzz corpus lags the checkpoint format: at least one seed must be a
// well-formed image of the current version, so CI's short fuzz run
// always starts from current framing, and for each of v2, v3 and v4 a
// seed must be a checkpoint log whose delta frames fold. Regenerate with
// MAGG_WRITE_CORPUS=1 when the format version bumps.
func TestFuzzCorpusCoversCurrentVersion(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("seed corpus missing: %v", err)
	}
	_, groups := fuzzWorkload(t)
	folds := map[byte]bool{} // versions with a seed whose frames fold
	versions := map[byte]bool{}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// Corpus files are `go test fuzz v1` format: a header line, then
		// one []byte("...") line per argument.
		for _, line := range bytes.Split(data, []byte("\n")) {
			if !bytes.HasPrefix(line, []byte("[]byte(")) {
				continue
			}
			q := string(line[len("[]byte(") : len(line)-1])
			seed, err := strconv.Unquote(q)
			if err != nil {
				t.Fatalf("%s: unparseable corpus line: %v", ent.Name(), err)
			}
			if len(seed) < 5 || seed[:4] != ckptMagic {
				continue
			}
			v := seed[4]
			versions[v] = true
			sqls, opts := fuzzSQL, fuzzOptions()
			if v == ckptVersion {
				sqls, opts = fuzzWinSQL, fuzzWinOptions()
			}
			e, err := New(sqls, groups, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, frames, err := e.restore(strings.NewReader(seed)); err == nil && frames > 0 {
				folds[v] = true
			}
		}
	}
	for v := byte(ckptVersionV1); v <= ckptVersion; v++ {
		if !versions[v] {
			t.Errorf("no corpus seed carries a v%d image; regenerate with MAGG_WRITE_CORPUS=1 go test -run TestWriteFuzzCorpus ./internal/core", v)
		}
	}
	for v := byte(ckptVersionV2); v <= ckptVersion; v++ {
		if !folds[v] {
			t.Errorf("no corpus seed is a v%d checkpoint log whose delta frames fold; regenerate with MAGG_WRITE_CORPUS=1 go test -run TestWriteFuzzCorpus ./internal/core", v)
		}
	}
}
