package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/attr"
	"repro/internal/epochstore"
	"repro/internal/feedgraph"
	"repro/internal/hfta"
	"repro/internal/lfta"
	"repro/internal/sketch"
)

// Epoch checkpoint/restore. A checkpoint captures everything the engine
// needs to resume from the last closed epoch after a crash: the stream
// position (records consumed), the planning inputs (group counts), the
// clock, the execution statistics and degradation history, and any
// retained HFTA rows (epochs not yet streamed out through a result
// handler). It is written at epoch boundaries only, when the LFTA tables
// are empty and every eviction has reached the HFTA, so no partial hash
// table state ever needs to be serialized: a restore rebuilds the plan
// from the restored group counts and replays the open epoch's records
// from the recorded stream position. (Options.CheckpointPath keeps it as a
// log of an image and per-boundary delta frames; see ckptlog.go.)
//
// Binary format ("MAGK", little-endian, version 4), in order:
//
//   - magic, version, workload hash;
//   - consumed, stats (epochs, replans, peak repairs, result errors),
//     cumulative ops, clock snapshot, cumulative and per-epoch
//     degradation, group counts, retained HFTA rows;
//   - shed-policy state words (ShedPolicyState: UniformShed's EWMA rate
//     and RNG position) and the measured per-relation flow lengths;
//   - sharded state: per-shard budget-split weights, stream positions,
//     cumulative ledgers and per-epoch ledgers (shard count 0 if unsharded);
//   - the durability footer: epochs persisted, enqueues that hit a full
//     persist queue, the unpersisted epochs (zeros without a store);
//   - windowed workloads only: window geometry and sketch spec (echoed for
//     validation), the composer's cursor, every retained pane with its
//     sketch blobs verbatim, closed-window ledgers, retained window rows.
//
// The workload hash covers the query relations, epoch length, aggregates,
// M and seed, plus the window geometry and sketch spec when windowed, so
// an image restores only into an engine for the same workload, which also
// decides whether a window section follows. Any other version is refused.
// Restoring an image and calling Checkpoint reproduces its bytes.

const (
	ckptMagic   = "MAGK"
	ckptVersion = 4

	ckptMaxAggs     = math.MaxUint8 // a row's aggregate and sketch counts are one byte; New refuses more
	ckptMaxPaneRels = math.MaxUint8 // a pane's relation count is one byte; New refuses more windowed queries

	// Sanity caps on untrusted length fields: a corrupt header must fail
	// cleanly, not demand gigabytes.
	ckptMaxHistory   = 1 << 24
	ckptMaxGroups    = 1 << 20
	ckptMaxRows      = 1 << 28
	ckptMaxShedWords = 1 << 10
	ckptMaxShards    = 1 << 16
	ckptMaxPanes     = 1 << 17 // window size is capped at 65536 epochs
	ckptMaxBlob      = 1 << 24
)

// ErrBadCheckpoint reports a malformed or mismatched checkpoint.
var ErrBadCheckpoint = errors.New("core: malformed checkpoint")

// workloadHash fingerprints the engine's workload-defining inputs.
func (e *Engine) workloadHash() uint64 {
	h := fnv.New64a()
	le := func(v any) { _ = binary.Write(h, binary.LittleEndian, v) }
	le(uint32(e.epochLen))
	le(uint64(e.opts.M))
	le(e.opts.Seed)
	le(uint32(len(e.queries)))
	for _, q := range e.queries {
		le(uint32(q))
	}
	le(uint32(len(e.aggs)))
	for _, a := range e.aggs {
		le(uint32(a.Op))
		le(int64(a.Input))
	}
	if e.winComposer != nil {
		// Windowed workloads fold in the window geometry and sketch spec,
		// so the hash also fixes whether an image has a window section.
		spec := e.winComposer.Spec()
		le(spec.Size)
		le(spec.Slide)
		le(uint32(len(e.sketchAggs)))
		for _, sa := range e.sketchAggs {
			le(uint8(sa.Kind))
			le(int64(sa.Input))
			le(math.Float64bits(sa.Q))
		}
		le(e.sketchPrecision())
		le(math.Float64bits(e.digestCompression()))
	}
	return h.Sum64()
}

// Checkpoint serializes the engine state. Call only at an epoch boundary
// (the engine's own CheckpointPath writes satisfy this by construction);
// mid-epoch LFTA table contents are not captured.
func (e *Engine) Checkpoint(w io.Writer) error {
	c := &e.ckpt
	c.reset(w)
	_, _ = c.bw.WriteString(ckptMagic)
	c.u8(ckptVersion)
	c.u64(e.workloadHash())
	e.writeBody(c, nil)
	return c.bw.Flush()
}

// ckptEncoder writes the checkpoint's little-endian fields through the
// engine's one buffered writer. A checkpoint of a long run is hundreds of
// thousands of fields, so each put is a store into the buffer — no
// interface boxing, no reflection — and the image streams out through
// 64 KiB however large it is. Write errors stick to the bufio.Writer and
// surface at Flush.
type ckptEncoder struct {
	bw      *bufio.Writer
	scratch [36]byte
	panes   []uint32 // the retained panes' epochs
}

// reset points the encoder at w, allocating its buffer on first use.
func (c *ckptEncoder) reset(w io.Writer) {
	if c.bw == nil {
		c.bw = bufio.NewWriterSize(w, 64<<10)
	} else {
		c.bw.Reset(w)
	}
}

func (c *ckptEncoder) u8(v uint8) { _ = c.bw.WriteByte(v) }

func (c *ckptEncoder) u32(v uint32) {
	binary.LittleEndian.PutUint32(c.scratch[:], v)
	_, _ = c.bw.Write(c.scratch[:4])
}

func (c *ckptEncoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(c.scratch[:], v)
	_, _ = c.bw.Write(c.scratch[:8])
}

func (c *ckptEncoder) f64(v float64) { c.u64(math.Float64bits(v)) }

func (c *ckptEncoder) bytes(b []byte) { _, _ = c.bw.Write(b) }

// deg writes one 36-byte ledger entry.
func (c *ckptEncoder) deg(d Degradation) {
	b := c.scratch[:]
	binary.LittleEndian.PutUint32(b, d.Epoch)
	binary.LittleEndian.PutUint64(b[4:], d.Offered)
	binary.LittleEndian.PutUint64(b[12:], d.Processed)
	binary.LittleEndian.PutUint64(b[20:], d.Dropped)
	binary.LittleEndian.PutUint64(b[28:], d.Late)
	_, _ = c.bw.Write(b)
}

// paneStats writes a pane or window ledger's four counters.
func (c *ckptEncoder) paneStats(s hfta.PaneStats) {
	c.u64(s.Offered)
	c.u64(s.Processed)
	c.u64(s.Dropped)
	c.u64(s.Late)
}

// rows writes a retained-row list: count, then each row's relation, epoch,
// key and aggregates with their lengths.
func (c *ckptEncoder) rows(rows []hfta.Row) {
	c.u64(uint64(len(rows)))
	for i := range rows {
		r := &rows[i]
		c.u32(uint32(r.Rel))
		c.u32(r.Epoch)
		c.u8(uint8(len(r.Key)))
		for _, k := range r.Key {
			c.u32(k)
		}
		c.u8(uint8(len(r.Aggs)))
		for _, a := range r.Aggs {
			c.u64(uint64(a))
		}
	}
}

// writePane writes one retained pane straight from the composer's runs:
// its epoch and stats, then per query with a run its relation, its rows
// and its sketch blobs, each in the run's order (numeric by key).
func (e *Engine) writePane(c *ckptEncoder, ep uint32) {
	stats, runs, _ := e.winComposer.Pane(ep)
	c.u32(ep)
	c.paneStats(stats)
	rels := 0
	for _, rp := range runs {
		if rp != nil {
			rels++
		}
	}
	c.u8(uint8(rels))
	for qi, rp := range runs {
		if rp == nil {
			continue
		}
		q := e.queries[qi]
		c.u32(uint32(q))
		for _, blobs := range [2]bool{false, true} { // the rows, then the blobs
			has := rp.HasRow
			if blobs {
				has = rp.HasSketch
			}
			n := 0
			for g := 0; g < rp.Len(); g++ {
				if has(g) {
					n++
				}
			}
			c.u32(uint32(n))
			for g := 0; g < rp.Len(); g++ {
				if !has(g) {
					continue
				}
				for _, k := range rp.Key(g, q.Size()) {
					c.u32(k)
				}
				if blobs {
					c.u32(uint32(len(rp.Partial(g))))
					c.bytes(rp.Partial(g))
				} else {
					for _, a := range rp.Slots(g, len(e.aggs)) {
						c.u64(uint64(a))
					}
				}
			}
		}
	}
}

// each writes how many of eps keep accepts, then calls write for each.
func (c *ckptEncoder) each(eps []uint32, keep func(uint32) bool, write func(uint32)) {
	n := 0
	for _, ep := range eps {
		if keep(ep) {
			n++
		}
	}
	c.u32(uint32(n))
	for _, ep := range eps {
		if keep(ep) {
			write(ep)
		}
	}
}

// writeBody writes everything after an image's header, or — with since
// set — a delta frame's body: only what changed since the log's last
// record (see ckptlog.go for the differences).
func (e *Engine) writeBody(c *ckptEncoder, since *ckptMark) {
	c.u64(e.consumed)
	c.u64(uint64(e.stats.Epochs))
	c.u64(uint64(e.stats.Replans))
	c.u64(uint64(e.stats.PeakRepairs))
	c.u64(uint64(e.stats.ResultErrors))
	ops := e.Ops()
	c.u64(ops.Probes)
	c.u64(ops.Transfers)
	c.u64(ops.Records)
	started, cur, regressed := e.clock.Snapshot()
	var s8 uint8
	if started {
		s8 = 1
	}
	c.u8(s8)
	c.u32(cur)
	c.u64(regressed)
	c.deg(e.cumDeg)
	var m ckptMark // an image carries every history from its start
	if since != nil {
		m = *since
	}
	closed := e.hist.epochs[m.hist:]
	c.u32(uint32(len(closed)))
	for i := m.hist; i < len(e.hist.epochs); i++ {
		c.deg(e.hist.global(i))
	}
	rels := e.graph.Relations()
	attr.SortSets(rels)
	c.u32(uint32(len(rels)))
	for _, r := range rels {
		c.u32(uint32(r))
		c.f64(e.groups[r])
	}
	if since == nil {
		c.rows(e.agg.AllRows())
	} else {
		// Each epoch closed since the last record, with the rows the HFTA
		// retains of it now (none: released, or never had any).
		c.u32(uint32(len(closed)))
		for _, ep := range closed {
			var rows []hfta.Row
			for _, q := range e.queries {
				if e.agg.GroupCount(q, ep) > 0 {
					rows = append(rows, e.agg.Rows(q, ep)...)
				}
			}
			c.u32(ep)
			c.rows(rows)
		}
	}
	// Shed-policy state: the mutable words a stateful policy needs to
	// resume byte-identically (empty for DropTail / no budget).
	var words []uint64
	if carrier, ok := e.shedder.(ShedPolicyState); ok {
		words = carrier.ShedState()
	}
	c.u32(uint32(len(words)))
	for _, wd := range words {
		c.u64(wd)
	}
	// Measured flow lengths (adaptive planning input).
	flowRels := make([]attr.Set, 0, len(e.flowLens))
	for rel := range e.flowLens {
		flowRels = append(flowRels, rel)
	}
	attr.SortSets(flowRels)
	c.u32(uint32(len(flowRels)))
	for _, rel := range flowRels {
		c.u32(uint32(rel))
		c.f64(e.flowLens[rel])
	}
	// Sharded-deployment state; an unsharded engine writes shard count 0
	// and no section. A shard's position (ShardPositions) keeps its slot.
	if e.nShards <= 1 {
		c.u32(0)
	} else {
		c.u32(uint32(e.nShards))
		for i := 0; i < e.nShards; i++ {
			c.f64(e.shardWeight[i])
			c.u64(e.shardCum[i].Offered + e.shardDeg[i].Offered)
			c.deg(e.shardCum[i])
		}
		c.u32(uint32(len(closed)))
		for i := m.hist; i < len(e.hist.epochs); i++ {
			for s := 0; s < e.nShards; s++ {
				c.deg(e.hist.shard(i, s))
			}
		}
	}
	// Durability footer, zeros without a store: the persisted-epoch
	// position and unpersisted ledger, so Restore + store replay resume.
	d := e.Durability()
	c.u32(uint32(d.Persisted))
	c.u32(uint32(d.QueueFull))
	c.u32(uint32(len(d.Unpersisted)))
	for _, ep := range d.Unpersisted {
		c.u32(ep)
	}
	if e.winComposer == nil {
		return
	}
	// Window section: geometry and sketch spec (echoed for validation, in
	// an image only), the window cursor, retained panes (sketch blobs
	// verbatim from the composer), closed-window ledgers, window rows.
	if since == nil {
		spec := e.winComposer.Spec()
		c.u32(spec.Size)
		c.u32(spec.Slide)
		c.u32(uint32(len(e.sketchAggs)))
		for _, sa := range e.sketchAggs {
			c.u8(uint8(sa.Kind))
			c.u64(uint64(int64(sa.Input)))
			c.f64(sa.Q)
		}
		c.u8(e.sketchPrecision())
		c.f64(e.digestCompression())
	}
	c.u64(uint64(e.winComposer.Next()))
	// Every retained pane, or in a frame the panes fed since: the
	// epochs closed since.
	panes := e.winComposer.PaneEpochs(c.panes[:0])
	c.panes = panes
	c.each(panes, func(ep uint32) bool { return since == nil || slices.Contains(closed, ep) },
		func(ep uint32) { e.writePane(c, ep) })
	leds := e.windowLeds[m.winLeds:]
	c.u32(uint32(len(leds)))
	for _, l := range leds {
		c.u32(l.Window)
		c.u32(l.Start)
		c.u32(l.End)
		c.paneStats(l.Stats)
	}
	wrows := e.windowRows[m.winRows:]
	c.u64(uint64(len(wrows)))
	for i := range wrows {
		r := &wrows[i]
		c.u32(uint32(r.Rel))
		c.u32(r.Window)
		c.u32(r.Start)
		c.u32(r.End)
		for _, k := range r.Key {
			c.u32(k)
		}
		for _, a := range r.Aggs {
			c.u64(uint64(a))
		}
		c.u8(uint8(len(r.Sketch)))
		for _, s := range r.Sketch {
			c.f64(s)
		}
	}
	if since != nil {
		// The panes the previous record held that are gone.
		c.each(m.panes, func(ep uint32) bool { return !slices.Contains(panes, ep) }, c.u32)
	}
}

// WriteCheckpointFile writes a checkpoint atomically: the image goes to
// the sibling path+".tmp", which is renamed over path, so a crash
// mid-write never corrupts the previous checkpoint. A crash before the
// rename leaves that one sibling behind, and the next write truncates and
// reuses it.
func (e *Engine) WriteCheckpointFile(path string) error {
	if path == e.opts.CheckpointPath {
		// The image replaces the engine's own log; the next boundary must
		// start a new one rather than append to the replaced file.
		e.ckptLog.drop()
	}
	f, err := e.writeImage(path)
	if err != nil {
		return err
	}
	return f.Close()
}

// writeImage is WriteCheckpointFile leaving the image's descriptor open,
// positioned at its end, for the checkpoint log's appends.
func (e *Engine) writeImage(path string) (*os.File, error) {
	tmp := path + ".tmp"
	f, err := e.stageImage(tmp)
	if err == nil {
		if err = os.Rename(tmp, path); err != nil {
			f.Close()
		}
	}
	if err != nil {
		os.Remove(tmp)
		return nil, err
	}
	return f, nil
}

// stageImage writes the image to tmp and returns the open descriptor.
func (e *Engine) stageImage(tmp string) (*os.File, error) {
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, err
	}
	if err := e.Checkpoint(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// ckptDecoder reads the checkpoint's little-endian fields. The first read
// error or malformed field sticks: later reads return zeros, and loops stop
// on it.
type ckptDecoder struct {
	e   *Engine
	r   io.Reader
	err error
	b   [8]byte
}

func (d *ckptDecoder) fill(n int) []byte {
	if d.err == nil {
		if _, err := io.ReadFull(d.r, d.b[:n]); err != nil {
			d.err = err
		}
	}
	if d.err != nil {
		clear(d.b[:n])
	}
	return d.b[:n]
}

func (d *ckptDecoder) u8() uint8    { return d.fill(1)[0] }
func (d *ckptDecoder) u32() uint32  { return binary.LittleEndian.Uint32(d.fill(4)) }
func (d *ckptDecoder) u64() uint64  { return binary.LittleEndian.Uint64(d.fill(8)) }
func (d *ckptDecoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *ckptDecoder) deg() Degradation {
	return Degradation{Epoch: d.u32(), Offered: d.u64(), Processed: d.u64(), Dropped: d.u64(), Late: d.u64()}
}

func (d *ckptDecoder) paneStats() hfta.PaneStats {
	return hfta.PaneStats{Offered: d.u64(), Processed: d.u64(), Dropped: d.u64(), Late: d.u64()}
}

// fail records a malformed field unless an earlier error stuck.
func (d *ckptDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrBadCheckpoint}, args...)...)
	}
}

// count reads a length field of n bytes (4 or 8) and fails above limit.
func (d *ckptDecoder) count(n int, limit uint64, what string) int {
	var v uint64
	if n == 4 {
		v = uint64(d.u32())
	} else {
		v = d.u64()
	}
	if v > limit {
		d.fail("implausible %s %d", what, v)
		return 0
	}
	return int(v)
}

// result is the decode's error: nil, a malformed field, or a truncation.
func (d *ckptDecoder) result() error {
	if d.err == nil || errors.Is(d.err, ErrBadCheckpoint) {
		return d.err
	}
	return fmt.Errorf("%w: truncated: %v", ErrBadCheckpoint, d.err)
}

// ckptState is a checkpoint parsed into local state: what Restore
// installs once every cross-check has passed, and what the log's delta
// frames fold into before that. A frame decodes into one of these too,
// holding only what the frame carries.
type ckptState struct {
	consumed                                   uint64
	epochs, replans, peakRepairs, resultErrors uint64
	ops                                        lfta.Ops
	started                                    uint8
	cur                                        uint32
	regressed                                  uint64
	cumDeg                                     Degradation

	hist   []Degradation
	groups feedgraph.GroupCounts
	rows   map[uint32][]hfta.Row // retained HFTA rows by epoch

	// Shed-policy words, measured flow lengths, sharded state, and the
	// durability footer.
	shedWords                  []uint64
	flows                      map[attr.Set]float64
	nShards                    uint32
	shardWeights               []float64
	shardCum                   []Degradation
	shardHist                  []Degradation // stride nShards
	durPersisted, durQueueFull uint32
	durUnpersisted             []uint32

	// Windowed only: composer cursor and panes, window ledgers and rows.
	winNext uint64
	panes   []hfta.PaneSnapshot
	winLeds []hfta.WindowLedger
	winRows []hfta.WindowRow
	evicted []uint32 // a delta frame's evicted panes
}

// readImage parses a checkpoint image into local state.
func (e *Engine) readImage(r io.Reader) (*ckptState, error) {
	d := &ckptDecoder{e: e, r: r}
	if magic := d.fill(len(ckptMagic)); d.err == nil && string(magic) != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadCheckpoint, magic)
	}
	if v := d.u8(); d.err == nil && v != ckptVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadCheckpoint, v)
	}
	if hash := d.u64(); d.err == nil && hash != e.workloadHash() {
		return nil, fmt.Errorf("%w: checkpoint is for a different workload (queries, M, or seed changed)", ErrBadCheckpoint)
	}
	st := &ckptState{}
	d.body(st, false)
	if err := d.result(); err != nil {
		return nil, err
	}
	return st, nil
}

// body reads an image's body, or a delta frame's, one section at a time
// in writeBody's order.
func (d *ckptDecoder) body(st *ckptState, delta bool) {
	d.head(st, delta)
	d.shedWords(st)
	d.flows(st)
	d.shards(st)
	d.durability(st)
	if d.e.winComposer != nil {
		d.window(st, delta)
	}
}

// head reads the stream position, scalars, degradation history, group
// counts and retained rows.
func (d *ckptDecoder) head(st *ckptState, delta bool) {
	st.consumed = d.u64()
	st.epochs = d.u64()
	st.replans = d.u64()
	st.peakRepairs = d.u64()
	st.resultErrors = d.u64()
	st.ops = lfta.Ops{Probes: d.u64(), Transfers: d.u64(), Records: d.u64()}
	st.started = d.u8()
	st.cur = d.u32()
	st.regressed = d.u64()
	st.cumDeg = d.deg()
	n := d.count(4, ckptMaxHistory, "history length")
	for i := 0; d.err == nil && i < n; i++ {
		st.hist = append(st.hist, d.deg())
	}
	n = d.count(4, ckptMaxGroups, "group count")
	st.groups = feedgraph.GroupCounts{}
	for i := 0; d.err == nil && i < n; i++ {
		rel := attr.Set(d.u32())
		st.groups[rel] = d.f64()
	}
	st.rows = map[uint32][]hfta.Row{}
	if !delta {
		d.rows(st, nil)
		return
	}
	n = d.count(4, ckptMaxHistory, "closed epoch count")
	for i := 0; d.err == nil && i < n; i++ {
		ep := d.u32()
		d.rows(st, &ep)
	}
}

// rows reads a retained-row list into st.rows; with epoch set, every row
// must belong to it.
func (d *ckptDecoder) rows(st *ckptState, epoch *uint32) {
	e := d.e
	n := d.count(8, ckptMaxRows, "row count")
	for i := 0; d.err == nil && i < n; i++ {
		r := hfta.Row{Rel: attr.Set(d.u32()), Epoch: d.u32()}
		keyLen := d.u8()
		if d.err != nil {
			return
		}
		// Rows must belong to the workload with the query's exact arity:
		// the aggregator's key packing assumes both.
		if _, known := e.specByRel[r.Rel]; !known {
			d.fail("row for %v, not a workload query", r.Rel)
			return
		}
		if int(keyLen) != r.Rel.Size() {
			d.fail("row key arity %d for %v", keyLen, r.Rel)
			return
		}
		if epoch != nil && r.Epoch != *epoch {
			d.fail("row of epoch %d listed under epoch %d", r.Epoch, *epoch)
			return
		}
		r.Key = make([]uint32, keyLen)
		for j := range r.Key {
			r.Key[j] = d.u32()
		}
		if aggLen := d.u8(); d.err == nil && int(aggLen) != len(e.aggs) {
			d.fail("row has %d aggregates, workload has %d", aggLen, len(e.aggs))
			return
		}
		r.Aggs = make([]int64, len(e.aggs))
		for j := range r.Aggs {
			r.Aggs[j] = int64(d.u64())
		}
		st.rows[r.Epoch] = append(st.rows[r.Epoch], r)
	}
}

// shedWords reads the shed-policy state words.
func (d *ckptDecoder) shedWords(st *ckptState) {
	n := d.count(4, ckptMaxShedWords, "shed-state size")
	for i := 0; d.err == nil && i < n; i++ {
		st.shedWords = append(st.shedWords, d.u64())
	}
}

// flows reads the measured flow lengths.
func (d *ckptDecoder) flows(st *ckptState) {
	n := d.count(4, ckptMaxGroups, "flow-length count")
	st.flows = map[attr.Set]float64{}
	for i := 0; d.err == nil && i < n; i++ {
		rel := attr.Set(d.u32())
		l := d.f64()
		if d.err == nil && (math.IsNaN(l) || math.IsInf(l, 0) || l < 0) {
			d.fail("flow length %v for %v", l, rel)
		}
		st.flows[rel] = l
	}
}

// shards reads the sharded-deployment state.
func (d *ckptDecoder) shards(st *ckptState) {
	st.nShards = uint32(d.count(4, ckptMaxShards, "shard count"))
	if d.err != nil || st.nShards <= 1 {
		return
	}
	for i := uint32(0); d.err == nil && i < st.nShards; i++ {
		w := d.f64()
		if d.err == nil && (math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 || w > 1) {
			d.fail("shard weight %v out of range", w)
		}
		st.shardWeights = append(st.shardWeights, w)
		// The shard's position word is read past, not restored: at an
		// epoch boundary it repeats the ledger's Offered that follows,
		// and a mid-epoch image's open-epoch records — the difference
		// — are in no restored ledger either.
		_ = d.u64()
		st.shardCum = append(st.shardCum, d.deg())
	}
	n := d.count(4, ckptMaxHistory, "shard history length")
	for i := 0; d.err == nil && i < n*int(st.nShards); i++ {
		st.shardHist = append(st.shardHist, d.deg())
	}
}

// durability reads the durability footer.
func (d *ckptDecoder) durability(st *ckptState) {
	st.durPersisted = d.u32()
	st.durQueueFull = d.u32()
	n := d.count(4, ckptMaxHistory, "unpersisted-epoch count")
	for i := 0; d.err == nil && i < n; i++ {
		st.durUnpersisted = append(st.durUnpersisted, d.u32())
	}
}

// windowSpec reads an image's echo of the window geometry and sketch spec
// and checks it against the engine.
func (d *ckptDecoder) windowSpec() {
	e := d.e
	spec := e.winComposer.Spec()
	size, slide := d.u32(), d.u32()
	if d.err == nil && (size != spec.Size || slide != spec.Slide) {
		d.fail("window %d/%d, engine runs %d/%d", size, slide, spec.Size, spec.Slide)
	}
	if n := d.u32(); d.err == nil && int(n) != len(e.sketchAggs) {
		d.fail("%d sketch aggregates, workload has %d", n, len(e.sketchAggs))
	}
	for i := 0; d.err == nil && i < len(e.sketchAggs); i++ {
		kind, input, q := sketch.AggKind(d.u8()), int64(d.u64()), d.f64()
		if sa := e.sketchAggs[i]; d.err == nil && (kind != sa.Kind || int(input) != sa.Input || q != sa.Q) {
			d.fail("sketch aggregate %d differs from the workload", i)
		}
	}
	prec, comp := d.u8(), d.f64()
	if d.err == nil && (prec != e.sketchPrecision() || comp != e.digestCompression()) {
		d.fail("sketch parameters differ from the workload")
	}
}

// window reads the window section: an image's window spec echo, the
// window cursor, panes, window ledgers and window rows, and a frame's
// evicted panes. Parsed only into local state; the composer is mutated
// after every cross-check passes.
func (d *ckptDecoder) window(st *ckptState, delta bool) {
	e := d.e
	if !delta {
		d.windowSpec()
	}
	if st.winNext = d.u64(); st.winNext > math.MaxInt64 {
		d.fail("implausible window cursor %d", st.winNext)
	}
	n := d.count(4, ckptMaxPanes, "pane count")
	for i := 0; d.err == nil && i < n; i++ {
		st.panes = append(st.panes, d.pane())
	}
	n = d.count(4, ckptMaxHistory, "window ledger count")
	for i := 0; d.err == nil && i < n; i++ {
		st.winLeds = append(st.winLeds, hfta.WindowLedger{Window: d.u32(), Start: d.u32(), End: d.u32(), Stats: d.paneStats()})
	}
	n = d.count(8, ckptMaxRows, "window row count")
	for i := 0; d.err == nil && i < n; i++ {
		r := hfta.WindowRow{Rel: attr.Set(d.u32())}
		if _, known := e.specByRel[r.Rel]; d.err == nil && !known {
			d.fail("window row for %v, not a workload query", r.Rel)
			return
		}
		r.Window, r.Start, r.End = d.u32(), d.u32(), d.u32()
		r.Key = make([]uint32, r.Rel.Size())
		for k := range r.Key {
			r.Key[k] = d.u32()
		}
		r.Aggs = make([]int64, len(e.aggs))
		for a := range r.Aggs {
			r.Aggs[a] = int64(d.u64())
		}
		if skLen := d.u8(); d.err == nil && int(skLen) != len(e.sketchAggs) {
			d.fail("window row has %d sketch slots, workload has %d", skLen, len(e.sketchAggs))
			return
		}
		r.Sketch = make([]float64, len(e.sketchAggs))
		for s := range r.Sketch {
			r.Sketch[s] = d.f64()
		}
		st.winRows = append(st.winRows, r)
	}
	if delta {
		n = d.count(4, ckptMaxPanes, "evicted pane count")
		for i := 0; d.err == nil && i < n; i++ {
			st.evicted = append(st.evicted, d.u32())
		}
	}
}

// pane reads one retained pane.
func (d *ckptDecoder) pane() hfta.PaneSnapshot {
	e := d.e
	ps := hfta.PaneSnapshot{Epoch: d.u32(), Stats: d.paneStats()}
	if nRels := d.u8(); d.err == nil && int(nRels) > len(e.queries) {
		d.fail("pane %d names %d relations, workload has %d", ps.Epoch, nRels, len(e.queries))
	} else {
		for j := uint8(0); d.err == nil && j < nRels; j++ {
			rs := hfta.PaneRelSnapshot{Rel: attr.Set(d.u32())}
			if _, known := e.specByRel[rs.Rel]; d.err == nil && !known {
				d.fail("pane %d names %v, not a workload query", ps.Epoch, rs.Rel)
				break
			}
			arity := rs.Rel.Size()
			n := d.count(4, ckptMaxRows, "pane row count")
			for r := 0; d.err == nil && r < n; r++ {
				key := make([]uint32, arity)
				for k := range key {
					key[k] = d.u32()
				}
				aggs := make([]int64, len(e.aggs))
				for a := range aggs {
					aggs[a] = int64(d.u64())
				}
				rs.Rows = append(rs.Rows, hfta.Row{Rel: rs.Rel, Epoch: ps.Epoch, Key: key, Aggs: aggs})
			}
			n = d.count(4, ckptMaxRows, "pane sketch count")
			for s := 0; d.err == nil && s < n; s++ {
				key := make([]uint32, arity)
				for k := range key {
					key[k] = d.u32()
				}
				blobLen := d.count(4, ckptMaxBlob, "sketch blob size")
				if d.err != nil {
					break
				}
				blob := make([]byte, blobLen)
				if _, err := io.ReadFull(d.r, blob); err != nil {
					d.err = err
				}
				rs.Sketches = append(rs.Sketches, hfta.KeyBlob{Key: key, Blob: blob})
			}
			ps.Rels = append(ps.Rels, rs)
		}
	}
	return ps
}

// Restore loads a checkpoint into a freshly constructed engine for the
// same workload (queries, M, seed) and returns the stream position: the
// number of records the checkpointed engine had consumed, i.e. how many
// leading records of the replayed stream to skip (stream.NewSkipSource)
// before resuming ingest. The plan is rebuilt deterministically from the
// restored group counts; measured flow lengths are not carried over, so
// the resumed plan may differ marginally from the one running at the
// crash — answers stay exact under any plan.
//
// r may hold a checkpoint log (ckptlog.go): the image is followed by delta
// frames, folded in order up to the first that is torn, fails its
// checksum or does not extend the state folded so far.
func (e *Engine) Restore(r io.Reader) (consumed uint64, err error) {
	consumed, _, err = e.restore(r)
	return consumed, err
}

// restore is Restore, also reporting how many delta frames it folded.
func (e *Engine) restore(r io.Reader) (consumed uint64, frames int, err error) {
	if e.consumed != 0 || e.stats.Epochs != 0 {
		return 0, 0, fmt.Errorf("core: Restore requires a freshly constructed engine")
	}
	br := bufio.NewReader(r)
	st, err := e.readImage(br)
	if err != nil {
		return 0, 0, err
	}
	var buf bytes.Buffer
	for {
		payload, err := epochstore.ReadFrame(br, &buf)
		if err != nil || !e.foldFrame(st, payload) {
			break
		}
		frames++
	}
	if err := e.install(st); err != nil {
		return 0, 0, err
	}
	return st.consumed, frames, nil
}

// install cross-checks parsed checkpoint state against the engine's own
// configuration and then, only if every check passes, loads it.
func (e *Engine) install(st *ckptState) error {
	// The group counts must cover (and be sane for) the feeding graph, the
	// shard count must match the deployment, the history's shard rows must
	// split its global ledgers exactly, and a stateful shed image needs a
	// policy able to absorb it.
	for _, rel := range e.graph.Relations() {
		g, err := st.groups.Get(rel)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
		if math.IsNaN(g) || math.IsInf(g, 0) || g <= 0 {
			return fmt.Errorf("%w: group count %v for %v", ErrBadCheckpoint, g, rel)
		}
	}
	// An unsharded engine's image carries 0 shards.
	if int(st.nShards) != e.nShards && !(st.nShards <= 1 && e.nShards <= 1) {
		return fmt.Errorf("%w: checkpoint has %d shards, engine runs %d", ErrBadCheckpoint, st.nShards, e.NumShards())
	}
	hist, err := restoreHistory(e.nShards, st.hist, st.shardHist)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	var shedCarrier ShedPolicyState
	if len(st.shedWords) > 0 {
		carrier, ok := e.shedder.(ShedPolicyState)
		if !ok {
			return fmt.Errorf("%w: checkpoint carries shed-policy state but the engine's policy is stateless", ErrBadCheckpoint)
		}
		shedCarrier = carrier
	}

	e.groups = st.groups
	if len(st.flows) > 0 {
		e.installFlowLens(st.flows)
	}
	if err := e.replan(); err != nil {
		return err
	}
	if shedCarrier != nil {
		if err := shedCarrier.RestoreShedState(st.shedWords); err != nil {
			return fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
	}
	// The weights restore bit-exactly (no renormalization): the resumed
	// run must slice the budget exactly as the crashed run would have, or
	// the byte-identity of its shed decisions breaks. (An unsharded image
	// carries neither weights nor ledgers.)
	copy(e.shardWeight, st.shardWeights)
	copy(e.shardCum, st.shardCum)
	e.totalOps = st.ops // the fresh runtime's counters are zero
	e.consumed = st.consumed
	e.stats.Epochs = int(st.epochs)
	e.stats.Replans = int(st.replans)
	e.stats.PeakRepairs = int(st.peakRepairs)
	e.stats.ResultErrors = int(st.resultErrors)
	e.clock.RestoreSnapshot(st.started != 0, st.cur, st.regressed)
	e.cumDeg = st.cumDeg
	e.hist = hist
	epochs := make([]uint32, 0, len(st.rows))
	for ep := range st.rows {
		epochs = append(epochs, ep)
	}
	slices.Sort(epochs) // a deterministic consume order
	for _, ep := range epochs {
		for _, r := range st.rows[ep] {
			e.agg.MergeRun(r.Rel, r.Epoch, r.Key, r.Aggs)
		}
	}
	e.durable.restore(int(st.durPersisted), st.durUnpersisted, int(st.durQueueFull))
	if e.winComposer != nil {
		if err := e.winComposer.RestorePanes(int64(st.winNext), st.panes); err != nil {
			return fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
		e.windowLeds = st.winLeds
		e.windowRows = st.winRows
		e.stats.Windows = len(st.winLeds)
	}
	if e.persist != nil {
		// With a store attached its contents are authoritative over the
		// footer: an epoch persisted after the checkpoint was written, or
		// lost with the store's disk, is reclassified here. Callers that
		// also want the rows back run ReplayStore (which reconciles too).
		e.reconcileStore()
	}
	return nil
}

// RestoreCheckpointFile restores from the named checkpoint file — an
// image, or the log Options.CheckpointPath keeps; see Restore.
func (e *Engine) RestoreCheckpointFile(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return e.Restore(f)
}
