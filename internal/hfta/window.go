package hfta

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/attr"
	"repro/internal/lfta"
	"repro/internal/sketch"
)

// Sliding-window composition over panes. Each closed LFTA epoch becomes
// a pane: the per-group exact aggregates the HFTA accumulated for that
// epoch plus the per-group serialized sketch partials. The composer
// retains panes in a ring keyed by epoch and folds them into overlapping
// windows — window i covers epochs [i·slide, i·slide+size) — emitting
// one result row per (window close, group) and evicting a pane as soon
// as no live window can reference it. Composition is pure merging
// (AggOp.Combine on exact slots, sketch.Partial.Merge on partials), so
// the probe hot path below is untouched: panes are whatever the epoch
// pipeline already produces.

// WindowSpec is a sliding window expressed in epochs.
type WindowSpec struct {
	Size  uint32 // epochs per window, ≥ 1
	Slide uint32 // epochs between window starts, ≥ 1
}

// start returns the first epoch of window i.
func (w WindowSpec) start(i int64) int64 { return i * int64(w.Slide) }

// end returns the last epoch of window i (inclusive).
func (w WindowSpec) end(i int64) int64 { return w.start(i) + int64(w.Size) - 1 }

// PaneStats is the degradation ledger of one pane, mirroring the
// engine's per-epoch Offered == Processed + Dropped + Late identity.
type PaneStats struct {
	Offered   uint64
	Processed uint64
	Dropped   uint64
	Late      uint64
}

func (s *PaneStats) add(o PaneStats) {
	s.Offered += o.Offered
	s.Processed += o.Processed
	s.Dropped += o.Dropped
	s.Late += o.Late
}

// zero reports whether no record touched the pane's ledger.
func (s PaneStats) zero() bool {
	return s.Offered == 0 && s.Processed == 0 && s.Dropped == 0 && s.Late == 0
}

// WindowLedger is the summed pane ledger of one closed window.
type WindowLedger struct {
	Window uint32 // window index i
	Start  uint32 // first epoch covered
	End    uint32 // last epoch covered (inclusive)
	Stats  PaneStats
}

// WindowRow is one group's result for one closed window.
type WindowRow struct {
	Rel    attr.Set
	Window uint32
	Start  uint32
	End    uint32
	Key    []uint32
	Aggs   []int64   // exact slots, aligned with the workload agg list
	Sketch []float64 // sketch estimates, aligned with the sketch agg list
}

// WindowResult is everything emitted when one window closes: its ledger
// and the rows of every query relation, in query order, in packed
// little-endian byte order of their group keys (see PackKey) within each
// relation.
type WindowResult struct {
	Ledger WindowLedger
	Rows   []WindowRow
}

// PaneInput is one relation's slice of a closing pane.
type PaneInput struct {
	Rel      attr.Set
	Rows     []Row             // per-group exact aggregates; each row's Aggs is kept by reference, never written
	Sketches map[string][]byte // packed group key → serialized sketch.Partial
}

// relPane is the per-relation state of one retained pane.
type relPane struct {
	rows map[string][]int64 // packed key → exact agg slots
	sk   map[string][]byte  // packed key → serialized partial
}

// pane is one retained epoch. A closed pane does not change until it is
// evicted (or, rarely, fed again), so the sorted read-out a checkpoint
// needs is built once, on the first SnapshotPanes that sees the pane, and
// kept in snap.
type pane struct {
	stats   PaneStats
	rels    map[attr.Set]*relPane
	snap    []PaneRelSnapshot
	snapped bool // snap is current
}

// Composer retains panes and closes sliding windows over them.
//
// Steady-state composition recycles its storage: evicted panes (struct +
// cleared maps) and delivered results (row slices, per-group agg/key/
// estimate slices) return to freelists instead of the heap, and every
// group's sketches are merged through the same two partials, so a caller
// that hands results back via Recycle composes windows with only the
// per-new-group map-key strings and the t-digest decode path still
// allocating. The freelists are plain slices — the
// composer is single-goroutine by contract (it runs on the engine's
// epoch-close path), so no locking.
type Composer struct {
	win     WindowSpec
	queries []attr.Set
	aggs    []lfta.AggSpec
	saggs   []sketch.Agg
	prec    uint8
	comp    float64

	panes map[uint32]*pane
	next  int64 // lowest window index not yet closed

	// freelists and reusable scratch (see type comment)
	panePool []*pane
	relPool  []*relPane
	rowsPool [][]WindowRow
	aggsPool [][]int64
	keyPool  [][]uint32
	estPool  [][]float64
	groups   map[string][]int64 // packed key → exact slots; reused across compose calls, cleared after each query
	rels     []*relPane         // the composed window's panes of one query, ascending epoch
	acc      *sketch.Partial    // groupSketch's accumulator and its decode scratch,
	spare    *sketch.Partial    // both overwritten group after group
	sortKeys []string
	kbuf     []byte // packed-key scratch for allocation-free map hits
}

// NewComposer builds a composer for a workload's query relations, exact
// aggregate list, and sketch aggregate list. precision/compression of 0
// select the sketch package defaults.
func NewComposer(win WindowSpec, queries []attr.Set, aggs []lfta.AggSpec, saggs []sketch.Agg, precision uint8, compression float64) (*Composer, error) {
	if win.Size == 0 || win.Slide == 0 {
		return nil, fmt.Errorf("hfta: window size and slide must be ≥ 1, got %d/%d", win.Size, win.Slide)
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("hfta: composer needs at least one query")
	}
	if precision == 0 {
		precision = sketch.DefaultPrecision
	}
	if compression == 0 {
		compression = sketch.DefaultCompression
	}
	// Validate the sketch spec list up front so decode errors later can
	// only mean corrupt data.
	acc, err := sketch.NewPartial(saggs, precision, compression)
	if err != nil && len(saggs) > 0 {
		return nil, err
	}
	spare, _ := sketch.NewPartial(saggs, precision, compression)
	return &Composer{
		acc:     acc,
		spare:   spare,
		win:     win,
		queries: queries,
		aggs:    aggs,
		saggs:   saggs,
		prec:    precision,
		comp:    compression,
		panes:   make(map[uint32]*pane),
	}, nil
}

// Spec returns the window geometry.
func (c *Composer) Spec() WindowSpec { return c.win }

// SketchAggs returns the sketch aggregate list the composer was built with.
func (c *Composer) SketchAggs() []sketch.Agg { return c.saggs }

// PaneCount returns the number of retained panes (diagnostics).
func (c *Composer) PaneCount() int { return len(c.panes) }

// PackKey encodes a group key as a comparable map key: little-endian
// 4-byte words. Byte order of packed keys is not numeric order — the low
// byte of each word compares first, so key 256 (00 01 00 00) sorts before
// key 1 (01 00 00 00). Window rows, pane snapshots and WindowOracle all
// sort by packed bytes, and checkpoint byte identity depends on that order.
func PackKey(key []uint32) string { return string(AppendKeyBytes(nil, key)) }

// AppendKeyBytes appends the packed form of key to dst.
func AppendKeyBytes(dst []byte, key []uint32) []byte {
	for _, v := range key {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

// UnpackKey decodes a packed group key.
func UnpackKey(s string) []uint32 { return appendKeyWords(make([]uint32, 0, len(s)/4), s) }

// appendKeyWords appends the words of a packed group key to dst.
func appendKeyWords(dst []uint32, s string) []uint32 {
	for i := 0; i+4 <= len(s); i += 4 {
		dst = append(dst, uint32(s[i])|uint32(s[i+1])<<8|uint32(s[i+2])<<16|uint32(s[i+3])<<24)
	}
	return dst
}

// ClosePane hands the composer one finalized epoch. Epochs close in
// strictly increasing order (the engine's clock is monotone and late
// records never reopen an epoch), so a pane is final on arrival. Panes
// older than any live window are ignored — they can only appear after a
// checkpoint restore replays input the restored composer already closed
// windows over.
func (c *Composer) ClosePane(epoch uint32, stats PaneStats, inputs []PaneInput) {
	if int64(epoch) < c.win.start(c.next) {
		return
	}
	p := c.panes[epoch]
	if p == nil {
		p = c.takePane()
		c.panes[epoch] = p
	}
	p.snap, p.snapped = nil, false
	p.stats.add(stats)
	for _, in := range inputs {
		rp := p.rels[in.Rel]
		if rp == nil {
			rp = c.takeRelPane()
			p.rels[in.Rel] = rp
		}
		for i := range in.Rows {
			r := &in.Rows[i]
			// Pack into the scratch buffer: the map hit needs no string
			// allocation, only a genuinely new group pays for its key.
			c.kbuf = AppendKeyBytes(c.kbuf[:0], r.Key)
			if acc, ok := rp.rows[string(c.kbuf)]; ok {
				// The same epoch's pane fed again (rare). The stored slice
				// is the first feed's caller's — the engine shares it with
				// result handlers and the persister — so fold into a copy.
				acc = append([]int64(nil), acc...)
				for j, spec := range c.aggs {
					acc[j] = spec.Op.Combine(acc[j], r.Aggs[j])
				}
				rp.rows[string(c.kbuf)] = acc
			} else {
				rp.rows[string(c.kbuf)] = r.Aggs
			}
		}
		for k, blob := range in.Sketches {
			if prev, ok := rp.sk[k]; ok {
				merged, err := c.mergeBlobs(prev, blob)
				if err == nil {
					rp.sk[k] = merged
				}
			} else {
				rp.sk[k] = blob
			}
		}
	}
}

func (c *Composer) mergeBlobs(a, b []byte) ([]byte, error) {
	pa, _, err := sketch.DecodePartial(c.saggs, c.prec, c.comp, a)
	if err != nil {
		return nil, err
	}
	pb, _, err := sketch.DecodePartial(c.saggs, c.prec, c.comp, b)
	if err != nil {
		return nil, err
	}
	if err := pa.Merge(pb); err != nil {
		return nil, err
	}
	return pa.AppendBinary(nil), nil
}

// CloseThrough closes every window whose last epoch is ≤ lastFinal (the
// newest epoch known to be final: the engine passes clock.Current()-1
// whenever the clock has advanced). Results come back in window order.
func (c *Composer) CloseThrough(lastFinal int64) []WindowResult {
	return c.closeWindows(lastFinal)
}

// CloseAll flushes at end of stream: every window that overlaps a
// retained pane closes, including trailing partially-filled ones.
func (c *Composer) CloseAll() []WindowResult {
	maxPane, ok := c.maxPaneEpoch()
	if !ok {
		return nil
	}
	// All windows with start ≤ maxPane, i.e. end ≤ maxPane + Size - 1.
	return c.closeWindows(int64(maxPane) + int64(c.win.Size) - 1)
}

func (c *Composer) minPaneEpoch() (uint32, bool) {
	var min uint32
	found := false
	for e := range c.panes {
		if !found || e < min {
			min, found = e, true
		}
	}
	return min, found
}

func (c *Composer) maxPaneEpoch() (uint32, bool) {
	var max uint32
	found := false
	for e := range c.panes {
		if !found || e > max {
			max, found = e, true
		}
	}
	return max, found
}

// closeWindows emits every not-yet-closed window with end ≤ maxEnd.
// Windows whose span holds no pane at all are skipped silently (the
// stream had no traffic there); the skip fast-forwards in O(1) per gap,
// so a clock jump of billions of epochs does not spin.
func (c *Composer) closeWindows(maxEnd int64) []WindowResult {
	var out []WindowResult
	defer c.evict()
	for {
		start, end := c.win.start(c.next), c.win.end(c.next)
		if end > maxEnd {
			break
		}
		c.evict()
		minPane, ok := c.minPaneEpoch()
		if !ok || int64(minPane) > maxEnd {
			// Nothing left through maxEnd: jump past it entirely.
			c.next = fastForward(c.next, maxEnd+1, c.win)
			break
		}
		if int64(minPane) > end {
			// Gap: jump to the first window whose span reaches minPane.
			c.next = fastForward(c.next, int64(minPane), c.win)
			continue
		}
		out = append(out, c.compose(start, end))
		c.next++
	}
	return out
}

// evict drops every pane no window at index ≥ next can reference,
// returning its storage to the freelists.
func (c *Composer) evict() {
	start := c.win.start(c.next)
	for e, p := range c.panes {
		if int64(e) < start {
			delete(c.panes, e)
			c.releasePane(p)
		}
	}
}

// releasePane clears a pane's maps (the map values — caller-owned agg
// slices and sketch blobs — are simply dropped) and pools the structs.
func (c *Composer) releasePane(p *pane) {
	for rel, rp := range p.rels {
		clear(rp.rows)
		clear(rp.sk)
		c.relPool = append(c.relPool, rp)
		delete(p.rels, rel)
	}
	p.stats = PaneStats{}
	p.snap, p.snapped = nil, false
	c.panePool = append(c.panePool, p)
}

func (c *Composer) takePane() *pane {
	if n := len(c.panePool); n > 0 {
		p := c.panePool[n-1]
		c.panePool = c.panePool[:n-1]
		return p
	}
	return &pane{rels: make(map[attr.Set]*relPane, len(c.queries))}
}

func (c *Composer) takeRelPane() *relPane {
	if n := len(c.relPool); n > 0 {
		rp := c.relPool[n-1]
		c.relPool = c.relPool[:n-1]
		return rp
	}
	return &relPane{rows: make(map[string][]int64), sk: make(map[string][]byte)}
}

// takeAggs returns a pooled (or fresh) slice of len(c.aggs) identity
// values.
func (c *Composer) takeAggs() []int64 {
	var s []int64
	if n := len(c.aggsPool); n > 0 {
		s = c.aggsPool[n-1]
		c.aggsPool = c.aggsPool[:n-1]
	}
	for _, a := range c.aggs {
		s = append(s, a.Op.Identity())
	}
	return s
}

// unpackKeyInto decodes a packed group key into a pooled (or fresh)
// slice — UnpackKey without the per-row allocation.
func (c *Composer) unpackKeyInto(s string) []uint32 {
	var k []uint32
	if n := len(c.keyPool); n > 0 {
		k = c.keyPool[n-1]
		c.keyPool = c.keyPool[:n-1]
	}
	return appendKeyWords(k, s)
}

// Recycle returns a delivered WindowResult's storage — the row slice and
// every row's key, agg, and sketch-estimate slice — to the composer's
// freelists. Call only once the result is fully consumed: later
// compositions reuse the returned storage. Callers that retain rows
// (or hand them to retaining consumers) must simply not recycle.
func (c *Composer) Recycle(res WindowResult) {
	for i := range res.Rows {
		r := &res.Rows[i]
		if r.Key != nil {
			c.keyPool = append(c.keyPool, r.Key[:0])
		}
		if r.Aggs != nil {
			c.aggsPool = append(c.aggsPool, r.Aggs[:0])
		}
		if r.Sketch != nil {
			c.estPool = append(c.estPool, r.Sketch[:0])
		}
		res.Rows[i] = WindowRow{}
	}
	if res.Rows != nil {
		c.rowsPool = append(c.rowsPool, res.Rows[:0])
	}
}

// fastForward returns the smallest window index ≥ cur whose end reaches
// target (i.e. end ≥ target).
func fastForward(cur, target int64, w WindowSpec) int64 {
	// end(i) = i·slide + size - 1 ≥ target  ⇔  i ≥ (target-size+1)/slide.
	num := target - int64(w.Size) + 1
	var i int64
	if num > 0 {
		i = (num + int64(w.Slide) - 1) / int64(w.Slide)
	}
	if i < cur {
		i = cur
	}
	return i
}

// compose merges the panes of [start, end] into one WindowResult. Agg
// slices, key slices, estimate buffers, and the row slice itself come
// from the freelists (refilled by Recycle). The exact slots are folded
// pane by pane; the sketches group by group, as each row is written, so
// that two partials serve the whole window (see groupSketch).
func (c *Composer) compose(start, end int64) WindowResult {
	res := WindowResult{Ledger: WindowLedger{
		Window: uint32(c.next),
		Start:  uint32(start),
		End:    uint32(end),
	}}
	if n := len(c.rowsPool); n > 0 {
		res.Rows = c.rowsPool[n-1]
		c.rowsPool = c.rowsPool[:n-1]
	}
	if c.groups == nil {
		c.groups = make(map[string][]int64)
	}
	for _, q := range c.queries {
		groups := c.groups
		rels := c.rels[:0]
		for e := start; e <= end; e++ {
			if p := c.panes[uint32(e)]; p != nil && p.rels[q] != nil {
				rels = append(rels, p.rels[q])
			}
		}
		c.rels = rels
		for _, rp := range rels {
			for k, slots := range rp.rows {
				acc, ok := groups[k]
				if !ok {
					acc = c.takeAggs()
					groups[k] = acc
				}
				for j, spec := range c.aggs {
					acc[j] = spec.Op.Combine(acc[j], slots[j])
				}
			}
			if len(c.saggs) == 0 {
				continue
			}
			for k, blob := range rp.sk {
				if _, ok := groups[k]; ok {
					continue
				}
				// A group only the sketches know exists if a blob of its
				// own decodes.
				if _, err := c.spare.DecodeFrom(c.prec, c.comp, blob); err == nil {
					groups[k] = c.takeAggs()
				}
			}
		}
		keys := sortedKeys(c.sortKeys[:0], groups)
		c.sortKeys = keys[:0]
		for _, k := range keys {
			row := WindowRow{
				Rel:    q,
				Window: uint32(c.next),
				Start:  uint32(start),
				End:    uint32(end),
				Key:    c.unpackKeyInto(k),
				Aggs:   groups[k],
			}
			if len(c.saggs) > 0 {
				var est []float64
				if n := len(c.estPool); n > 0 {
					est = c.estPool[n-1]
					c.estPool = c.estPool[:n-1]
				}
				row.Sketch = c.groupSketch(rels, k).Estimates(est)
			}
			res.Rows = append(res.Rows, row)
		}
		clear(groups)
	}
	for e := start; e <= end; e++ {
		if p := c.panes[uint32(e)]; p != nil {
			res.Ledger.Stats.add(p.stats)
		}
	}
	return res
}

// groupSketch merges one group's partials out of a window's panes (rels,
// ascending epoch: the order keeps t-digest merge sequences — and so
// serialized results — identical across runs and shard counts). The
// first blob that decodes is decoded into c.acc, every later one into
// c.spare and merged from there, so a window of any number of groups
// allocates for its t-digests only. The result is valid until the next
// call; a blob that does not decode is skipped.
func (c *Composer) groupSketch(rels []*relPane, k string) *sketch.Partial {
	merged := false
	for _, rp := range rels {
		blob, ok := rp.sk[k]
		if !ok {
			continue
		}
		into := c.acc
		if merged {
			into = c.spare
		}
		if _, err := into.DecodeFrom(c.prec, c.comp, blob); err != nil {
			continue
		}
		if merged {
			_ = c.acc.Merge(c.spare)
		}
		merged = true
	}
	if !merged {
		// No sketch in any pane: the estimates of an empty partial.
		empty, _ := sketch.NewPartial(c.saggs, c.prec, c.comp)
		return empty
	}
	return c.acc
}

// sortedKeys appends m's packed keys to dst in ascending order.
func sortedKeys[V any](dst []string, m map[string]V) []string {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// identities returns a fresh slice of aggregate identity values (the
// reference oracle folds into these; compose uses pooled takeAggs).
func identities(aggs []lfta.AggSpec) []int64 {
	out := make([]int64, len(aggs))
	for i, a := range aggs {
		out[i] = a.Op.Identity()
	}
	return out
}

// --- checkpoint snapshot ---

// KeyBlob pairs a group key with a serialized sketch partial.
type KeyBlob struct {
	Key  []uint32
	Blob []byte
}

// PaneRelSnapshot is one relation's slice of a snapshotted pane, with
// rows and blobs in sorted key order (the serialization is part of the
// checkpoint byte-identity contract).
type PaneRelSnapshot struct {
	Rel      attr.Set
	Rows     []Row
	Sketches []KeyBlob
}

// PaneSnapshot is one retained pane in deterministic order.
type PaneSnapshot struct {
	Epoch uint32
	Stats PaneStats
	Rels  []PaneRelSnapshot
}

// Next returns the lowest window index not yet closed.
func (c *Composer) Next() int64 { return c.next }

// SnapshotPanes captures the retained panes: ascending epoch, relations
// in query order, rows and sketch blobs sorted by packed key. The result
// shares each pane's cached read-out and is read-only.
func (c *Composer) SnapshotPanes() []PaneSnapshot {
	epochs := make([]uint32, 0, len(c.panes))
	for e := range c.panes {
		epochs = append(epochs, e)
	}
	slices.Sort(epochs)
	out := make([]PaneSnapshot, 0, len(epochs))
	for _, e := range epochs {
		p := c.panes[e]
		if !p.snapped {
			p.snap, p.snapped = c.snapshotRels(e, p), true
		}
		out = append(out, PaneSnapshot{Epoch: e, Stats: p.stats, Rels: p.snap})
	}
	return out
}

// snapshotRels builds one pane's sorted read-out; each relation's keys
// are unpacked into one array.
func (c *Composer) snapshotRels(e uint32, p *pane) []PaneRelSnapshot {
	var out []PaneRelSnapshot
	for _, q := range c.queries {
		rp := p.rels[q]
		if rp == nil || len(rp.rows)+len(rp.sk) == 0 {
			continue
		}
		rs := PaneRelSnapshot{Rel: q}
		words := make([]uint32, 0, (len(rp.rows)+len(rp.sk))*q.Size())
		keys := sortedKeys(c.sortKeys[:0], rp.rows)
		if len(keys) > 0 {
			rs.Rows = make([]Row, 0, len(keys))
		}
		for _, k := range keys {
			at := len(words)
			words = appendKeyWords(words, k)
			rs.Rows = append(rs.Rows, Row{Rel: q, Epoch: e, Key: words[at:len(words):len(words)], Aggs: rp.rows[k]})
		}
		keys = sortedKeys(keys[:0], rp.sk)
		if len(keys) > 0 {
			rs.Sketches = make([]KeyBlob, 0, len(keys))
		}
		for _, k := range keys {
			at := len(words)
			words = appendKeyWords(words, k)
			rs.Sketches = append(rs.Sketches, KeyBlob{Key: words[at:len(words):len(words)], Blob: rp.sk[k]})
		}
		c.sortKeys = keys[:0]
		out = append(out, rs)
	}
	return out
}

// RestorePanes replaces the composer's state with a snapshot. Blobs are
// validated against the sketch spec list; they are stored verbatim so a
// snapshot → restore → snapshot round trip is byte-identical.
func (c *Composer) RestorePanes(next int64, panes []PaneSnapshot) error {
	if next < 0 {
		return fmt.Errorf("hfta: negative window index %d", next)
	}
	fresh := make(map[uint32]*pane, len(panes))
	for _, ps := range panes {
		if int64(ps.Epoch) < c.win.start(next) {
			return fmt.Errorf("hfta: pane %d precedes live window %d", ps.Epoch, next)
		}
		if fresh[ps.Epoch] != nil {
			return fmt.Errorf("hfta: duplicate pane %d", ps.Epoch)
		}
		p := &pane{stats: ps.Stats, rels: make(map[attr.Set]*relPane, len(ps.Rels))}
		for _, rs := range ps.Rels {
			ok := false
			for _, q := range c.queries {
				if q == rs.Rel {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("hfta: pane %d names unknown relation %v", ps.Epoch, rs.Rel)
			}
			if p.rels[rs.Rel] != nil {
				return fmt.Errorf("hfta: pane %d repeats relation %v", ps.Epoch, rs.Rel)
			}
			rp := &relPane{rows: make(map[string][]int64, len(rs.Rows)), sk: make(map[string][]byte, len(rs.Sketches))}
			for i := range rs.Rows {
				r := &rs.Rows[i]
				if len(r.Key) != rs.Rel.Size() {
					return fmt.Errorf("hfta: pane %d row key arity %d, want %d", ps.Epoch, len(r.Key), rs.Rel.Size())
				}
				if len(r.Aggs) != len(c.aggs) {
					return fmt.Errorf("hfta: pane %d row has %d agg slots, want %d", ps.Epoch, len(r.Aggs), len(c.aggs))
				}
				k := PackKey(r.Key)
				if _, dup := rp.rows[k]; dup {
					return fmt.Errorf("hfta: pane %d duplicate group", ps.Epoch)
				}
				rp.rows[k] = r.Aggs
			}
			for _, kb := range rs.Sketches {
				if len(kb.Key) != rs.Rel.Size() {
					return fmt.Errorf("hfta: pane %d sketch key arity %d, want %d", ps.Epoch, len(kb.Key), rs.Rel.Size())
				}
				if _, rest, err := sketch.DecodePartial(c.saggs, c.prec, c.comp, kb.Blob); err != nil {
					return fmt.Errorf("hfta: pane %d sketch blob: %v", ps.Epoch, err)
				} else if len(rest) != 0 {
					return fmt.Errorf("hfta: pane %d sketch blob has %d trailing bytes", ps.Epoch, len(rest))
				}
				k := PackKey(kb.Key)
				if _, dup := rp.sk[k]; dup {
					return fmt.Errorf("hfta: pane %d duplicate sketch group", ps.Epoch)
				}
				rp.sk[k] = kb.Blob
			}
			p.rels[rs.Rel] = rp
		}
		fresh[ps.Epoch] = p
	}
	c.panes = fresh
	c.next = next
	return nil
}

// Reset drops all retained panes and rewinds the window cursor. Pane
// storage returns to the freelists, so a reset composer re-runs warm.
func (c *Composer) Reset() {
	for e, p := range c.panes {
		delete(c.panes, e)
		c.releasePane(p)
	}
	c.next = 0
}
