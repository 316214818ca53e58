package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
// sharded and shedding with a stateful policy, so every deployment section
// (shed words, shard weights, ledgers, history) is exercised.
func fuzzOptions() Options {
	return Options{M: 600, Seed: 3, Shards: 2, Budget: 400, Shed: NewUniformShed(0.5, 7)}
}

// fuzzRun runs the fuzz workload through a fresh engine and returns its
// image.
func fuzzRun(tb testing.TB, sqls []string, opts Options) []byte {
	tb.Helper()
	recs, groups := fuzzWorkload(tb)
	e, err := New(sqls, groups, opts)
	if err != nil {
		tb.Fatal(err)
	}
	if err := feedAll(e, recs); err != nil {
		tb.Fatal(err)
	}
	var b bytes.Buffer
	if err := e.Checkpoint(&b); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// fuzzImage is the tumbling engine's image; no store is attached, so its
// durability footer is zeros.
func fuzzImage(tb testing.TB) []byte { return fuzzRun(tb, fuzzSQL, fuzzOptions()) }

// fuzzImageDurable writes the engine state after the first n records
// with a store attached, so the durability footer carries a ledger.
func fuzzImageDurable(tb testing.TB, n int) []byte {
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
	if err := feedAll(e, recs[:n]); err != nil {
		tb.Fatal(err)
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

// fuzzImageWindowed is the windowed engine's image at the same stream
// position, panes and sketch blobs included.
func fuzzImageWindowed(tb testing.TB) []byte { return fuzzRun(tb, fuzzWinSQL, fuzzWinOptions()) }

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// ckptSections decodes img for e one section at a time, through a
// counting reader under ckptDecoder, and returns the offset each section
// starts at: "head", "shed", "flows", "shards", "durability", and for a
// windowed engine "window".
func ckptSections(tb testing.TB, e *Engine, img []byte) map[string]int {
	tb.Helper()
	cr := &countingReader{r: bytes.NewReader(img)}
	d := &ckptDecoder{e: e, r: cr}
	st := &ckptState{}
	d.fill(len(ckptMagic))
	d.u8()
	d.u64()
	sections := []struct {
		name string
		read func()
	}{
		{"head", func() { d.head(st, false) }},
		{"shed", func() { d.shedWords(st) }},
		{"flows", func() { d.flows(st) }},
		{"shards", func() { d.shards(st) }},
		{"durability", func() { d.durability(st) }},
		{"window", func() { d.window(st, false) }},
	}
	if e.winComposer == nil {
		sections = sections[:len(sections)-1]
	}
	off := map[string]int{}
	for _, sec := range sections {
		off[sec.name] = cr.n
		sec.read()
	}
	if d.err != nil || cr.n != len(img) {
		tb.Fatalf("section decode stopped at byte %d of %d: %v", cr.n, len(img), d.err)
	}
	return off
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
	if err := feedAll(e, recs[skip:]); err != nil {
		tb.Fatal(err)
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

// fuzzLogDurable is fuzzLog over an image with a durability ledger, cut
// into the second of five epochs: an engine with no store restored from it
// carries the ledger on into every frame, deterministically, unlike an
// engine whose persister runs alongside.
func fuzzLogDurable(tb testing.TB) (image []byte, frames [][]byte) {
	return fuzzLog(tb, fuzzSQL, fuzzOptions(), fuzzImageDurable(tb, 700))
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
	recs, groups := fuzzWorkload(tb)
	img, dur, win := fuzzImage(tb), fuzzImageDurable(tb, len(recs)), fuzzImageWindowed(tb)
	te, err := New(fuzzSQL, groups, fuzzOptions())
	if err != nil {
		tb.Fatal(err)
	}
	we, err := New(fuzzWinSQL, groups, fuzzWinOptions())
	if err != nil {
		tb.Fatal(err)
	}
	off, woff := ckptSections(tb, te, img), ckptSections(tb, we, win)
	flip := func(b []byte, at int, xor byte) []byte {
		b = bytes.Clone(b)
		b[at] ^= xor
		return b
	}
	seeds := [][]byte{
		img,
		nil,
		[]byte(ckptMagic),
		[]byte("XXXX"),
		img[:10],                       // truncated header
		img[:len(img)-5],               // truncated durability footer
		img[:off["shed"]],              // deployment sections sheared off
		img[:off["durability"]],        // durability footer sheared off
		flip(img, 4, 0xff),             // mangled version byte
		flip(img, 5, 0xff),             // flipped workload hash
		flip(img, 4, ckptVersion^2),    // an earlier release's version
		flip(img, 4, ckptVersion^5),    // an unknown later version
		flip(img, off["shed"], 0xff),   // corrupted shed-word count
		flip(img, off["shards"], 0xff), // corrupted shard count
		dur,
		dur[:len(dur)-3],            // truncated durability footer
		flip(dur, len(dur)-4, 0xff), // mangled unpersisted-epoch count/entry
		win,
		win[:len(win)-9],            // truncated window section
		win[:woff["window"]],        // window section sheared off
		flip(win, len(win)-1, 0xff), // mangled window-section tail
		flip(win, len(win)/2, 0xff), // corrupted pane body
	}
	// Checkpoint logs: delta frames after a tumbling image, after one
	// carrying a durability ledger, and after a windowed image.
	seeds = append(seeds, logForms(fuzzLog(tb, fuzzSQL, fuzzOptions(), nil))...)
	seeds = append(seeds, logForms(fuzzLogDurable(tb))...)
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
		// and the windowed engine, which reads the window section too.
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
			if err := feedAll(e, probe); err != nil {
				t.Fatalf("restored engine cannot process: %v", err)
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

// corruptRejecter returns a constructor of fresh engines for one
// deployment and a check that Restore refuses an image with
// ErrBadCheckpoint.
func corruptRejecter(t *testing.T, sqls []string, opts Options) (func() *Engine, func(*testing.T, []byte)) {
	_, groups := fuzzWorkload(t)
	fresh := func() *Engine {
		e, err := New(sqls, groups, opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	return fresh, func(t *testing.T, data []byte) {
		t.Helper()
		if _, err := fresh().Restore(bytes.NewReader(data)); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("err = %v; want ErrBadCheckpoint", err)
		}
	}
}

func put32(img []byte, at int, v uint32) []byte {
	b := bytes.Clone(img)
	binary.LittleEndian.PutUint32(b[at:], v)
	return b
}

func put64(img []byte, at int, v uint64) []byte {
	b := bytes.Clone(img)
	binary.LittleEndian.PutUint64(b[at:], v)
	return b
}

// rejectsOtherVersions: earlier releases wrote versions 1 to 3; none of
// them, nor any later number, is read as the one format.
func rejectsOtherVersions(t *testing.T, fresh func() *Engine, img []byte) {
	t.Helper()
	for _, v := range []byte{0, 1, 2, 3, ckptVersion + 1, 0xff} {
		b := bytes.Clone(img)
		b[4] = v
		_, err := fresh().Restore(bytes.NewReader(b))
		if want := fmt.Sprintf("unsupported version %d", v); !errors.Is(err, ErrBadCheckpoint) || !strings.Contains(fmt.Sprint(err), want) {
			t.Errorf("version %d: err = %v; want ErrBadCheckpoint: %s", v, err, want)
		}
	}
}

// TestRestoreRejectsCorruptSections covers the framing the generic corrupt
// table (checkpoint_test.go) does not reach: the shed-state, flow-length
// and shard sections, each located by decoding the image, plus prefix
// sweeps and images of any version but the one format's.
func TestRestoreRejectsCorruptSections(t *testing.T) {
	fresh, mustReject := corruptRejecter(t, fuzzSQL, fuzzOptions())
	img := fuzzImage(t)
	off := ckptSections(t, fresh(), img)
	if n := binary.LittleEndian.Uint32(img[off["shed"]:]); n != 2 {
		t.Fatalf("expected 2 shed words (UniformShed), image has %d", n)
	}

	t.Run("huge shed-word count", func(t *testing.T) {
		mustReject(t, put32(img, off["shed"], 1<<31))
	})
	t.Run("huge flow count", func(t *testing.T) {
		mustReject(t, put32(img, off["flows"], 1<<31))
	})
	t.Run("huge shard count", func(t *testing.T) {
		mustReject(t, put32(img, off["shards"], 1<<31))
	})
	t.Run("shard count mismatch", func(t *testing.T) {
		// 0 shards parses but contradicts the 2-shard engine.
		mustReject(t, put32(img, off["shards"], 0))
	})
	t.Run("shard weight NaN", func(t *testing.T) {
		mustReject(t, put64(img, off["shards"]+4, math.Float64bits(math.NaN())))
	})
	t.Run("shard position word is not state", func(t *testing.T) {
		// The word after shard 0's weight is that shard's position. It is
		// derived (cumulative Offered, plus the open epoch's in this
		// mid-epoch image), so Restore reads past it: an image carrying
		// another value restores to the same engine, whose positions are
		// its ledgers' Offered.
		want := fresh()
		if _, err := want.Restore(bytes.NewReader(img)); err != nil {
			t.Fatal(err)
		}
		got := fresh()
		pos := off["shards"] + 12
		routed := binary.LittleEndian.Uint64(img[pos:])
		if _, err := got.Restore(bytes.NewReader(put64(img, pos, routed+12345))); err != nil {
			t.Fatalf("image with a different position word rejected: %v", err)
		}
		if g, w := got.ShardPositions(), want.ShardPositions(); !slices.Equal(g, w) || g[0] != got.ShardDegradations()[0].Offered || g[0] == 0 {
			t.Errorf("restored positions %v; want %v, each shard's cumulative Offered", g, w)
		}
	})
	t.Run("shed rate out of range", func(t *testing.T) {
		// First shed word is the UniformShed rate; 2.0 is not a probability.
		mustReject(t, put64(img, off["shed"]+4, math.Float64bits(2.0)))
	})
	t.Run("unsupported version", func(t *testing.T) {
		rejectsOtherVersions(t, fresh, img)
	})

	t.Run("global history differs from its shard rows", func(t *testing.T) {
		// The history count follows the scalars and the cumulative ledger;
		// each entry is epoch u32 + four u64 counters.
		histOff := off["head"] + 8 + 4*8 + 3*8 + 1 + 4 + 8 + 36
		if n := binary.LittleEndian.Uint32(img[histOff:]); n == 0 {
			t.Fatal("image has no closed epoch; the test is vacuous")
		}
		offered := histOff + 4 + 4
		mustReject(t, put64(img, offered, binary.LittleEndian.Uint64(img[offered:])+1))
		mustReject(t, put32(img, histOff+4, binary.LittleEndian.Uint32(img[histOff+4:])+1))
	})

	t.Run("prefix sweep", func(t *testing.T) {
		// Every strict prefix is a truncation and must be rejected. Sample
		// with a stride (plus the section boundaries) to keep it fast; the
		// fuzz target covers the space continuously.
		cuts := []int{0, 1, 4, 5, 12, off["shed"] - 1, len(img) - 1}
		for _, at := range off {
			cuts = append(cuts, at)
		}
		for cut := 13; cut < len(img); cut += 97 {
			cuts = append(cuts, cut)
		}
		for _, cut := range cuts {
			mustReject(t, img[:cut])
		}
	})

}

// TestRestoreRejectsCorruptWindowSection: a windowed image's pane state,
// from its decoded start to the first pane's first sketch blob, must be
// refused when any count, epoch or blob is out of bounds, when it is cut
// short, or when the image claims another format version.
func TestRestoreRejectsCorruptWindowSection(t *testing.T) {
	freshWin, mustRejectWin := corruptRejecter(t, fuzzWinSQL, fuzzWinOptions())
	// Layout: size, slide | nSaggs ×(kind,input,q) | prec, comp | next |
	// panes.
	win := fuzzImageWindowed(t)
	we := freshWin()
	winOff := ckptSections(t, we, win)["window"]
	if _, err := we.Restore(bytes.NewReader(win)); err != nil {
		t.Fatal(err)
	}
	if we.winComposer.Next() == 0 || we.winComposer.PaneCount() == 0 {
		t.Fatal("fuzz image carries no closed windows or panes; the window cases are vacuous")
	}
	get32 := func(at int) uint32 { return binary.LittleEndian.Uint32(win[at:]) }
	arity := 2            // both fuzz queries group two attributes
	nAggs := len(we.aggs) // exact slots per row
	at := winOff + 8      // size, slide
	nS := int(get32(at))  // sketch agg count
	at += 4 + nS*17       // kind u8 + input i64 + q f64
	at += 9               // precision u8 + compression f64
	at += 8               // window cursor
	nPanesOff := at
	if get32(nPanesOff) == 0 {
		t.Fatal("image carries zero panes")
	}
	at += 4
	paneEpochOff := at
	at += 4 + 32 // epoch + stats
	if win[at] == 0 {
		t.Fatal("first pane names no relations")
	}
	at++    // nRels
	at += 4 // rel
	nRows := int(get32(at))
	at += 4 + nRows*(arity*4+nAggs*8)
	if get32(at) == 0 {
		t.Fatal("first pane relation carries no sketch blobs")
	}
	at += 4
	at += arity * 4 // first blob's key
	blobLenOff := at
	blobOff := at + 4

	t.Run("pane count over cap", func(t *testing.T) {
		mustRejectWin(t, put32(win, nPanesOff, ckptMaxPanes+1))
	})
	t.Run("blob size over cap", func(t *testing.T) {
		mustRejectWin(t, put32(win, blobLenOff, ckptMaxBlob+1))
	})
	t.Run("corrupt sketch blob", func(t *testing.T) {
		b := bytes.Clone(win)
		b[blobOff] ^= 0xff
		mustRejectWin(t, b)
	})
	t.Run("stale pane epoch", func(t *testing.T) {
		// An epoch older than the live window range must be rejected, not
		// silently resurrected.
		mustRejectWin(t, put32(win, paneEpochOff, 0))
	})
	t.Run("unsupported version", func(t *testing.T) {
		rejectsOtherVersions(t, freshWin, win)
	})
	t.Run("window section truncations", func(t *testing.T) {
		// Sample with a stride plus the section boundaries; the fuzz
		// target covers the space continuously.
		cuts := []int{winOff, nPanesOff, paneEpochOff, blobLenOff, blobOff, len(win) - 1}
		for cut := winOff; cut < len(win); cut += 211 {
			cuts = append(cuts, cut)
		}
		for _, cut := range cuts {
			mustRejectWin(t, win[:cut])
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

// TestFuzzCorpusCoversCurrentVersion fails the build when the checked-in
// fuzz corpus lags the checkpoint format: at least one seed must be a
// well-formed image of the format's version, so CI's short fuzz run always
// starts from current framing, and for the tumbling engine and for the
// windowed one a seed must be a checkpoint log whose delta frames fold.
// Regenerate with MAGG_WRITE_CORPUS=1 when the format changes.
func TestFuzzCorpusCoversCurrentVersion(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("seed corpus missing: %v", err)
	}
	_, groups := fuzzWorkload(t)
	deployments := []struct {
		name string
		sqls []string
		opts Options
	}{
		{"tumbling", fuzzSQL, fuzzOptions()},
		{"windowed", fuzzWinSQL, fuzzWinOptions()},
	}
	current := false
	folds := map[string]bool{} // deployments with a seed whose frames fold
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
			if len(seed) < 5 || seed[:4] != ckptMagic || seed[4] != ckptVersion {
				continue
			}
			current = true
			for _, dep := range deployments {
				e, err := New(dep.sqls, groups, dep.opts)
				if err != nil {
					t.Fatal(err)
				}
				if _, frames, err := e.restore(strings.NewReader(seed)); err == nil && frames > 0 {
					folds[dep.name] = true
				}
			}
		}
	}
	const regen = "regenerate with MAGG_WRITE_CORPUS=1 go test -run TestWriteFuzzCorpus ./internal/core"
	if !current {
		t.Errorf("no corpus seed carries a version %d image; %s", ckptVersion, regen)
	}
	for _, dep := range deployments {
		if !folds[dep.name] {
			t.Errorf("no corpus seed is a %s checkpoint log whose delta frames fold; %s", dep.name, regen)
		}
	}
}
