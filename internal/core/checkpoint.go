package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"

	"repro/internal/attr"
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
// from the recorded stream position.
//
// Binary format ("MAGK", little-endian), in order: magic, version,
// workload hash, consumed, stats (epochs, replans, peak repairs, result
// errors), cumulative ops, clock snapshot, cumulative degradation,
// per-epoch degradation history, group counts, retained HFTA rows. The
// workload hash covers the query relations, epoch length, aggregates, M,
// and seed, so a checkpoint can only be restored into an engine built
// for the same workload.
//
// Version 2 appends, after the rows: the shed-policy state words (for
// policies implementing ShedPolicyState — UniformShed's EWMA rate and RNG
// position), the measured per-relation flow lengths the adaptive planner
// runs on, and the sharded-deployment state (per-shard budget-split
// weights, stream positions, cumulative ledgers, and the per-epoch
// per-shard ledger history). Together these make a killed
// sharded-and-shedding run resume byte-identically. Version 1 checkpoints
// still load (the v2 section simply defaults to fresh state).
//
// Version 3 appends, after the v2 section, the durability ledger of the
// epoch-store pipeline: how many closed epochs were persisted, how many
// enqueues hit a full persist queue, and the list of unpersisted epochs —
// so a resumed run still knows which epochs never reached the store. The
// engine writes version 3 only when it carries durability state (a store
// attached, or a ledger restored from a v3 image); otherwise it writes
// version 2 byte-identically to previous releases.
//
// Version 4 appends, after the v3 footer, the sliding-window section:
// the window geometry and sketch aggregate list (echoed for validation —
// they are also folded into the workload hash), the composer's window
// cursor, every retained pane (stats, per-relation rows, and serialized
// sketch partials, all in deterministic order with blobs carried
// verbatim so a restore → checkpoint round trip is byte-identical), the
// closed-window ledger history, and any retained window result rows. The
// engine writes version 4 only when the workload composes windows;
// tumbling workloads keep producing v2/v3 images byte-identically to
// previous releases.

const (
	ckptMagic     = "MAGK"
	ckptVersion   = 4
	ckptVersionV3 = 3
	ckptVersionV2 = 2
	ckptVersionV1 = 1

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
		// Windowed workloads fold the window geometry and sketch spec in
		// too; tumbling workloads hash exactly as before, so v1–v3 images
		// stay restorable byte-for-byte.
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

// Checkpoint serializes the engine state: format v3 when the engine
// carries durability state (an attached epoch store or a restored
// ledger), otherwise v2 — so engines without a store keep producing
// byte-identical images across releases. Call only at an epoch boundary
// (the engine's own CheckpointPath writes satisfy this by construction);
// mid-epoch LFTA table contents are not captured.
func (e *Engine) Checkpoint(w io.Writer) error {
	_ = e.flushStage() // cannot fail outside Process; see flushStage
	version := uint8(ckptVersionV2)
	if e.hasDurabilityState() {
		version = ckptVersionV3
	}
	if e.winComposer != nil {
		version = ckptVersion
	}
	return e.checkpointVersion(w, version)
}

// hasDurabilityState reports whether the engine has anything for a v3
// checkpoint's durability footer to record.
func (e *Engine) hasDurabilityState() bool {
	if e.persist != nil {
		return true
	}
	l := e.durable
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.persisted > 0 || len(l.unpersisted) > 0 || l.queueFull > 0
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

// checkpointVersion writes the checkpoint in the requested format
// version; tests use it to produce v1 images for read-compatibility.
func (e *Engine) checkpointVersion(w io.Writer, version uint8) error {
	if e.ckpt.bw == nil {
		e.ckpt.bw = bufio.NewWriterSize(w, 64<<10)
	} else {
		e.ckpt.bw.Reset(w)
	}
	c := &e.ckpt
	_, _ = c.bw.WriteString(ckptMagic)
	c.u8(version)
	c.u64(e.workloadHash())
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
	c.u32(uint32(len(e.degHist)))
	for _, d := range e.degHist {
		c.deg(d)
	}
	rels := e.graph.Relations()
	attr.SortSets(rels)
	c.u32(uint32(len(rels)))
	for _, r := range rels {
		c.u32(uint32(r))
		c.u64(math.Float64bits(e.groups[r]))
	}
	rows := e.agg.AllRows()
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
	if version >= 2 {
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
			c.u64(math.Float64bits(e.flowLens[rel]))
		}
		// Sharded-deployment state; an unsharded engine writes shard count 0
		// and no section. A shard's position (ShardPositions) keeps its slot.
		if e.nShards <= 1 {
			c.u32(0)
		} else {
			c.u32(uint32(e.nShards))
			for i := 0; i < e.nShards; i++ {
				c.u64(math.Float64bits(e.shardWeight[i]))
				c.u64(e.shardCum[i].Offered + e.shardDeg[i].Offered)
				c.deg(e.shardCum[i])
			}
			c.u32(uint32(len(e.shardHist) / e.nShards))
			for _, d := range e.shardHist {
				c.deg(d)
			}
		}
	}
	if version >= 3 {
		// Durability footer: the persisted-epoch position and the
		// unpersisted ledger, so Restore + store replay resume exactly.
		d := e.Durability()
		c.u32(uint32(d.Persisted))
		c.u32(uint32(d.QueueFull))
		c.u32(uint32(len(d.Unpersisted)))
		for _, ep := range d.Unpersisted {
			c.u32(ep)
		}
	}
	if version >= 4 {
		// Sliding-window section: geometry and sketch spec (echoed for
		// validation), the window cursor, retained panes, closed-window
		// ledgers, and retained window rows. Pane sketch blobs are written
		// verbatim from the composer.
		spec := e.winComposer.Spec()
		c.u32(spec.Size)
		c.u32(spec.Slide)
		c.u32(uint32(len(e.sketchAggs)))
		for _, sa := range e.sketchAggs {
			c.u8(uint8(sa.Kind))
			c.u64(uint64(int64(sa.Input)))
			c.u64(math.Float64bits(sa.Q))
		}
		c.u8(e.sketchPrecision())
		c.u64(math.Float64bits(e.digestCompression()))
		c.u64(uint64(e.winComposer.Next()))
		panes := e.winComposer.SnapshotPanes()
		c.u32(uint32(len(panes)))
		for _, p := range panes {
			c.u32(p.Epoch)
			c.paneStats(p.Stats)
			c.u8(uint8(len(p.Rels)))
			for _, rs := range p.Rels {
				c.u32(uint32(rs.Rel))
				c.u32(uint32(len(rs.Rows)))
				for i := range rs.Rows {
					r := &rs.Rows[i]
					for _, k := range r.Key {
						c.u32(k)
					}
					for _, a := range r.Aggs {
						c.u64(uint64(a))
					}
				}
				c.u32(uint32(len(rs.Sketches)))
				for _, kb := range rs.Sketches {
					for _, k := range kb.Key {
						c.u32(k)
					}
					c.u32(uint32(len(kb.Blob)))
					c.bytes(kb.Blob)
				}
			}
		}
		c.u32(uint32(len(e.windowLeds)))
		for _, l := range e.windowLeds {
			c.u32(l.Window)
			c.u32(l.Start)
			c.u32(l.End)
			c.paneStats(l.Stats)
		}
		c.u64(uint64(len(e.windowRows)))
		for i := range e.windowRows {
			r := &e.windowRows[i]
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
				c.u64(math.Float64bits(s))
			}
		}
	}
	return c.bw.Flush()
}

// WriteCheckpointFile writes a checkpoint atomically: the image goes to
// the sibling path+".tmp", which is renamed over path, so a crash
// mid-write never corrupts the previous checkpoint. A crash before the
// rename leaves that one sibling behind, and the next write truncates and
// reuses it.
func (e *Engine) WriteCheckpointFile(path string) error {
	tmp := path + ".tmp"
	err := e.writeCheckpointTmp(tmp)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// writeCheckpointTmp is WriteCheckpointFile up to the rename.
func (e *Engine) writeCheckpointTmp(tmp string) error {
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if err := e.Checkpoint(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Restore loads a checkpoint into a freshly constructed engine for the
// same workload (queries, M, seed) and returns the stream position: the
// number of records the checkpointed engine had consumed, i.e. how many
// leading records of the replayed stream to skip (stream.NewSkipSource)
// before resuming Process. The plan is rebuilt deterministically from the
// restored group counts; measured flow lengths are not carried over, so
// the resumed plan may differ marginally from the one running at the
// crash — answers stay exact under any plan.
func (e *Engine) Restore(r io.Reader) (consumed uint64, err error) {
	if e.consumed != 0 || e.stats.Epochs != 0 || e.stage.Len() != 0 {
		return 0, fmt.Errorf("core: Restore requires a freshly constructed engine")
	}
	br := bufio.NewReader(r)
	magic := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if string(magic) != ckptMagic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrBadCheckpoint, magic)
	}
	var rerr error
	le := func(v any) {
		if rerr == nil {
			rerr = binary.Read(br, binary.LittleEndian, v)
		}
	}
	readDeg := func() Degradation {
		var d Degradation
		le(&d.Epoch)
		le(&d.Offered)
		le(&d.Processed)
		le(&d.Dropped)
		le(&d.Late)
		return d
	}
	var version uint8
	le(&version)
	if rerr == nil && (version < ckptVersionV1 || version > ckptVersion) {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrBadCheckpoint, version)
	}
	if rerr == nil && version < 4 && e.winComposer != nil {
		// A windowed workload only ever writes v4 images, so an older
		// version here means a relabeled or foreign image; accepting it
		// would silently drop the pane state.
		return 0, fmt.Errorf("%w: windowed workload requires a v4 checkpoint, got v%d", ErrBadCheckpoint, version)
	}
	var hash uint64
	le(&hash)
	if rerr == nil && hash != e.workloadHash() {
		return 0, fmt.Errorf("%w: checkpoint is for a different workload (queries, M, or seed changed)", ErrBadCheckpoint)
	}
	var epochs, replans, peakRepairs, resultErrors uint64
	le(&consumed)
	le(&epochs)
	le(&replans)
	le(&peakRepairs)
	le(&resultErrors)
	var ops lfta.Ops
	le(&ops.Probes)
	le(&ops.Transfers)
	le(&ops.Records)
	var started uint8
	var cur uint32
	var regressed uint64
	le(&started)
	le(&cur)
	le(&regressed)
	cumDeg := readDeg()
	var nHist uint32
	le(&nHist)
	if rerr == nil && nHist > ckptMaxHistory {
		return 0, fmt.Errorf("%w: implausible history length %d", ErrBadCheckpoint, nHist)
	}
	var hist []Degradation
	for i := uint32(0); rerr == nil && i < nHist; i++ {
		hist = append(hist, readDeg())
	}
	var nGroups uint32
	le(&nGroups)
	if rerr == nil && nGroups > ckptMaxGroups {
		return 0, fmt.Errorf("%w: implausible group count %d", ErrBadCheckpoint, nGroups)
	}
	groups := feedgraph.GroupCounts{}
	for i := uint32(0); rerr == nil && i < nGroups; i++ {
		var rel uint32
		var bits uint64
		le(&rel)
		le(&bits)
		groups[attr.Set(rel)] = math.Float64frombits(bits)
	}
	var nRows uint64
	le(&nRows)
	if rerr == nil && nRows > ckptMaxRows {
		return 0, fmt.Errorf("%w: implausible row count %d", ErrBadCheckpoint, nRows)
	}
	type ckptRow struct {
		rel   attr.Set
		epoch uint32
		key   []uint32
		aggs  []int64
	}
	var rows []ckptRow
	for i := uint64(0); rerr == nil && i < nRows; i++ {
		var rel uint32
		var epoch uint32
		var keyLen, aggLen uint8
		le(&rel)
		le(&epoch)
		le(&keyLen)
		if rerr == nil {
			// Rows must belong to the workload with the query's exact
			// arity: the aggregator's key packing assumes both.
			rs := attr.Set(rel)
			known := false
			for _, q := range e.queries {
				if q == rs {
					known = true
					break
				}
			}
			if !known {
				return 0, fmt.Errorf("%w: row for %v, not a workload query", ErrBadCheckpoint, rs)
			}
			if int(keyLen) != rs.Size() {
				return 0, fmt.Errorf("%w: row key arity %d for %v", ErrBadCheckpoint, keyLen, rs)
			}
		}
		key := make([]uint32, keyLen)
		for j := range key {
			le(&key[j])
		}
		le(&aggLen)
		if rerr == nil && int(aggLen) != len(e.aggs) {
			return 0, fmt.Errorf("%w: row has %d aggregates, workload has %d", ErrBadCheckpoint, aggLen, len(e.aggs))
		}
		aggs := make([]int64, aggLen)
		for j := range aggs {
			var u uint64
			le(&u)
			aggs[j] = int64(u)
		}
		rows = append(rows, ckptRow{rel: attr.Set(rel), epoch: epoch, key: key, aggs: aggs})
	}

	// Version-2 section: shed-policy state, measured flow lengths, and the
	// sharded-deployment state. A v1 image stops here and every v2 field
	// defaults to fresh state.
	var shedWords []uint64
	flows := map[attr.Set]float64{}
	var nCkptShards uint32
	var shardWeights []float64
	var shardCum []Degradation
	var shardHist []Degradation // stride nCkptShards
	if rerr == nil && version >= 2 {
		var nWords uint32
		le(&nWords)
		if rerr == nil && nWords > ckptMaxShedWords {
			return 0, fmt.Errorf("%w: implausible shed-state size %d", ErrBadCheckpoint, nWords)
		}
		for i := uint32(0); rerr == nil && i < nWords; i++ {
			var wd uint64
			le(&wd)
			shedWords = append(shedWords, wd)
		}
		var nFlows uint32
		le(&nFlows)
		if rerr == nil && nFlows > ckptMaxGroups {
			return 0, fmt.Errorf("%w: implausible flow-length count %d", ErrBadCheckpoint, nFlows)
		}
		for i := uint32(0); rerr == nil && i < nFlows; i++ {
			var rel uint32
			var bits uint64
			le(&rel)
			le(&bits)
			l := math.Float64frombits(bits)
			if rerr == nil && (math.IsNaN(l) || math.IsInf(l, 0) || l < 0) {
				return 0, fmt.Errorf("%w: flow length %v for %v", ErrBadCheckpoint, l, attr.Set(rel))
			}
			flows[attr.Set(rel)] = l
		}
		le(&nCkptShards)
		if rerr == nil && nCkptShards > ckptMaxShards {
			return 0, fmt.Errorf("%w: implausible shard count %d", ErrBadCheckpoint, nCkptShards)
		}
		if rerr == nil && nCkptShards > 1 {
			for i := uint32(0); rerr == nil && i < nCkptShards; i++ {
				var bits uint64
				le(&bits)
				w := math.Float64frombits(bits)
				if rerr == nil && (math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 || w > 1) {
					return 0, fmt.Errorf("%w: shard weight %v out of range", ErrBadCheckpoint, w)
				}
				shardWeights = append(shardWeights, w)
				// The shard's position word is read past, not restored: at an
				// epoch boundary it repeats the ledger's Offered that follows,
				// and a mid-epoch image's open-epoch records — the difference
				// — are in no restored ledger either.
				var routed uint64
				le(&routed)
				shardCum = append(shardCum, readDeg())
			}
			var nShardHist uint32
			le(&nShardHist)
			if rerr == nil && nShardHist > ckptMaxHistory {
				return 0, fmt.Errorf("%w: implausible shard history length %d", ErrBadCheckpoint, nShardHist)
			}
			for i := uint64(0); rerr == nil && i < uint64(nShardHist)*uint64(nCkptShards); i++ {
				shardHist = append(shardHist, readDeg())
			}
		}
	}

	// Version-3 footer: the durability ledger of the epoch-store pipeline.
	var durPersisted, durQueueFull uint32
	var durUnpersisted []uint32
	haveDurability := false
	if rerr == nil && version >= 3 {
		haveDurability = true
		le(&durPersisted)
		le(&durQueueFull)
		var nUnp uint32
		le(&nUnp)
		if rerr == nil && nUnp > ckptMaxHistory {
			return 0, fmt.Errorf("%w: implausible unpersisted-epoch count %d", ErrBadCheckpoint, nUnp)
		}
		for i := uint32(0); rerr == nil && i < nUnp; i++ {
			var ep uint32
			le(&ep)
			durUnpersisted = append(durUnpersisted, ep)
		}
	}

	// Version-4 section: the sliding-window composer state. Parsed only
	// into local state here; the composer is mutated after every
	// cross-check passes.
	knownRel := func(rel attr.Set) bool {
		for _, q := range e.queries {
			if q == rel {
				return true
			}
		}
		return false
	}
	var winNext uint64
	var winPanes []hfta.PaneSnapshot
	var winLeds []hfta.WindowLedger
	var winRows []hfta.WindowRow
	haveWindow := false
	if rerr == nil && version >= 4 {
		haveWindow = true
		if e.winComposer == nil {
			return 0, fmt.Errorf("%w: checkpoint carries window state but the workload is tumbling", ErrBadCheckpoint)
		}
		spec := e.winComposer.Spec()
		var size, slide uint32
		le(&size)
		le(&slide)
		if rerr == nil && (size != spec.Size || slide != spec.Slide) {
			return 0, fmt.Errorf("%w: window %d/%d, engine runs %d/%d", ErrBadCheckpoint, size, slide, spec.Size, spec.Slide)
		}
		var nSaggs uint32
		le(&nSaggs)
		if rerr == nil && int(nSaggs) != len(e.sketchAggs) {
			return 0, fmt.Errorf("%w: %d sketch aggregates, workload has %d", ErrBadCheckpoint, nSaggs, len(e.sketchAggs))
		}
		for i := uint32(0); rerr == nil && i < nSaggs; i++ {
			var kind uint8
			var input int64
			var qbits uint64
			le(&kind)
			le(&input)
			le(&qbits)
			if rerr == nil {
				sa := e.sketchAggs[i]
				if sketch.AggKind(kind) != sa.Kind || int(input) != sa.Input || math.Float64frombits(qbits) != sa.Q {
					return 0, fmt.Errorf("%w: sketch aggregate %d differs from the workload", ErrBadCheckpoint, i)
				}
			}
		}
		var prec uint8
		var compBits uint64
		le(&prec)
		le(&compBits)
		if rerr == nil && (prec != e.sketchPrecision() || math.Float64frombits(compBits) != e.digestCompression()) {
			return 0, fmt.Errorf("%w: sketch parameters differ from the workload", ErrBadCheckpoint)
		}
		le(&winNext)
		if rerr == nil && winNext > math.MaxInt64 {
			return 0, fmt.Errorf("%w: implausible window cursor %d", ErrBadCheckpoint, winNext)
		}
		var nPanes uint32
		le(&nPanes)
		if rerr == nil && nPanes > ckptMaxPanes {
			return 0, fmt.Errorf("%w: implausible pane count %d", ErrBadCheckpoint, nPanes)
		}
		for i := uint32(0); rerr == nil && i < nPanes; i++ {
			var ps hfta.PaneSnapshot
			le(&ps.Epoch)
			le(&ps.Stats.Offered)
			le(&ps.Stats.Processed)
			le(&ps.Stats.Dropped)
			le(&ps.Stats.Late)
			var nRels uint8
			le(&nRels)
			if rerr == nil && int(nRels) > len(e.queries) {
				return 0, fmt.Errorf("%w: pane %d names %d relations, workload has %d", ErrBadCheckpoint, ps.Epoch, nRels, len(e.queries))
			}
			for j := uint8(0); rerr == nil && j < nRels; j++ {
				var rel uint32
				le(&rel)
				rs := hfta.PaneRelSnapshot{Rel: attr.Set(rel)}
				if rerr == nil && !knownRel(rs.Rel) {
					return 0, fmt.Errorf("%w: pane %d names %v, not a workload query", ErrBadCheckpoint, ps.Epoch, rs.Rel)
				}
				arity := rs.Rel.Size()
				var nRows uint32
				le(&nRows)
				if rerr == nil && uint64(nRows) > ckptMaxRows {
					return 0, fmt.Errorf("%w: implausible pane row count %d", ErrBadCheckpoint, nRows)
				}
				for r := uint32(0); rerr == nil && r < nRows; r++ {
					key := make([]uint32, arity)
					for k := range key {
						le(&key[k])
					}
					aggs := make([]int64, len(e.aggs))
					for a := range aggs {
						var u uint64
						le(&u)
						aggs[a] = int64(u)
					}
					rs.Rows = append(rs.Rows, hfta.Row{Rel: rs.Rel, Epoch: ps.Epoch, Key: key, Aggs: aggs})
				}
				var nSk uint32
				le(&nSk)
				if rerr == nil && uint64(nSk) > ckptMaxRows {
					return 0, fmt.Errorf("%w: implausible pane sketch count %d", ErrBadCheckpoint, nSk)
				}
				for s := uint32(0); rerr == nil && s < nSk; s++ {
					key := make([]uint32, arity)
					for k := range key {
						le(&key[k])
					}
					var blobLen uint32
					le(&blobLen)
					if rerr == nil && blobLen > ckptMaxBlob {
						return 0, fmt.Errorf("%w: implausible sketch blob size %d", ErrBadCheckpoint, blobLen)
					}
					blob := make([]byte, blobLen)
					le(blob)
					rs.Sketches = append(rs.Sketches, hfta.KeyBlob{Key: key, Blob: blob})
				}
				ps.Rels = append(ps.Rels, rs)
			}
			winPanes = append(winPanes, ps)
		}
		var nLeds uint32
		le(&nLeds)
		if rerr == nil && nLeds > ckptMaxHistory {
			return 0, fmt.Errorf("%w: implausible window ledger count %d", ErrBadCheckpoint, nLeds)
		}
		for i := uint32(0); rerr == nil && i < nLeds; i++ {
			var l hfta.WindowLedger
			le(&l.Window)
			le(&l.Start)
			le(&l.End)
			le(&l.Stats.Offered)
			le(&l.Stats.Processed)
			le(&l.Stats.Dropped)
			le(&l.Stats.Late)
			winLeds = append(winLeds, l)
		}
		var nWRows uint64
		le(&nWRows)
		if rerr == nil && nWRows > ckptMaxRows {
			return 0, fmt.Errorf("%w: implausible window row count %d", ErrBadCheckpoint, nWRows)
		}
		for i := uint64(0); rerr == nil && i < nWRows; i++ {
			var rel uint32
			le(&rel)
			r := hfta.WindowRow{Rel: attr.Set(rel)}
			if rerr == nil && !knownRel(r.Rel) {
				return 0, fmt.Errorf("%w: window row for %v, not a workload query", ErrBadCheckpoint, r.Rel)
			}
			le(&r.Window)
			le(&r.Start)
			le(&r.End)
			r.Key = make([]uint32, r.Rel.Size())
			for k := range r.Key {
				le(&r.Key[k])
			}
			r.Aggs = make([]int64, len(e.aggs))
			for a := range r.Aggs {
				var u uint64
				le(&u)
				r.Aggs[a] = int64(u)
			}
			var skLen uint8
			le(&skLen)
			if rerr == nil && int(skLen) != len(e.sketchAggs) {
				return 0, fmt.Errorf("%w: window row has %d sketch slots, workload has %d", ErrBadCheckpoint, skLen, len(e.sketchAggs))
			}
			r.Sketch = make([]float64, skLen)
			for s := range r.Sketch {
				var bits uint64
				le(&bits)
				r.Sketch[s] = math.Float64frombits(bits)
			}
			winRows = append(winRows, r)
		}
	}
	if rerr != nil {
		return 0, fmt.Errorf("%w: truncated: %v", ErrBadCheckpoint, rerr)
	}

	// Cross-checks against the engine's own configuration before any state
	// is mutated: the group counts must cover (and be sane for) the
	// feeding graph, the shard count must match the deployment, and a
	// stateful shed image needs a policy able to absorb it.
	for _, rel := range e.graph.Relations() {
		g, err := groups.Get(rel)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
		if math.IsNaN(g) || math.IsInf(g, 0) || g <= 0 {
			return 0, fmt.Errorf("%w: group count %v for %v", ErrBadCheckpoint, g, rel)
		}
	}
	if version >= 2 && int(nCkptShards) != e.nShards && !(nCkptShards <= 1 && e.nShards <= 1) {
		return 0, fmt.Errorf("%w: checkpoint has %d shards, engine runs %d", ErrBadCheckpoint, nCkptShards, e.NumShards())
	}
	var shedCarrier ShedPolicyState
	if len(shedWords) > 0 {
		carrier, ok := e.shedder.(ShedPolicyState)
		if !ok {
			return 0, fmt.Errorf("%w: checkpoint carries shed-policy state but the engine's policy is stateless", ErrBadCheckpoint)
		}
		shedCarrier = carrier
	}

	e.groups = groups
	if len(flows) > 0 {
		e.installFlowLens(flows)
	}
	if err := e.replan(); err != nil {
		return 0, err
	}
	if shedCarrier != nil {
		if err := shedCarrier.RestoreShedState(shedWords); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
	}
	if e.nShards > 1 && len(shardWeights) == e.nShards {
		// The weights restore bit-exactly (no renormalization): the
		// resumed run must slice the budget exactly as the crashed run
		// would have, or the byte-identity of its shed decisions breaks.
		copy(e.shardWeight, shardWeights)
		copy(e.shardCum, shardCum)
		e.shardHist = shardHist
	}
	e.totalOps = ops // the fresh runtime's counters are zero
	e.consumed = consumed
	e.stats.Epochs = int(epochs)
	e.stats.Replans = int(replans)
	e.stats.PeakRepairs = int(peakRepairs)
	e.stats.ResultErrors = int(resultErrors)
	e.clock.RestoreSnapshot(started != 0, cur, regressed)
	e.cumDeg = cumDeg
	e.degHist = hist
	for _, r := range rows {
		e.agg.Consume(lfta.Eviction{Rel: r.rel, Key: r.key, Aggs: r.aggs, Epoch: r.epoch})
	}
	if haveDurability {
		e.durable.restore(int(durPersisted), durUnpersisted, int(durQueueFull))
	}
	if haveWindow {
		if err := e.winComposer.RestorePanes(int64(winNext), winPanes); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
		e.windowLeds = winLeds
		e.windowRows = winRows
		e.stats.Windows = len(winLeds)
	}
	if e.persist != nil {
		// With a store attached its contents are authoritative over the
		// footer: an epoch persisted after the checkpoint was written, or
		// lost with the store's disk, is reclassified here. Callers that
		// also want the rows back run ReplayStore (which reconciles too).
		e.reconcileStore()
	}
	return consumed, nil
}

// RestoreCheckpointFile restores from the named checkpoint file; see
// Restore.
func (e *Engine) RestoreCheckpointFile(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return e.Restore(f)
}
