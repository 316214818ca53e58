// Package lfta executes a configuration at the low-level query node: the
// simulator equivalent of Gigascope's NIC-resident LFTA.
//
// A Runtime owns one hash table per instantiated relation. Each arriving
// record probes the raw tables; a collision evicts the resident entry,
// which cascades into the tables of the relations the collider feeds (and,
// if the relation is a user query, transfers to the HFTA). At the end of
// an epoch the tables flush top-down the same way. The runtime counts
// every probe (a c1 operation) and every transfer to the HFTA (a c2
// operation), which is exactly the "actual cost" metric of the paper's
// measured experiments (Figures 13-15).
//
// Every entry leaving a table — ingest victims, and the chunks the epoch
// flush drains — is a hashtab.VictimRun, and one cascade (cascadeRun)
// carries it: the run is projected into the child's key columns and
// probed with hashtab.ProbeColumnsSelInto, recursing on the child's
// victims. Records enter through ProcessColumnsSel (the selected lanes of
// a column batch) or, one at a time, through Process, which probes with
// hashtab.ProbeInto — the same commit as the columnar kernel, one key at
// a time — and whose one-lane victim run joins the same cascade; Process
// stays because exact per-record budget charging must probe one admitted
// record and read its cost before the next is offered.
//
// Both are allocation-free in steady state: victim runs live in
// per-cascade-depth scratch, and HFTA transfers accumulate as columnar
// runs per query relation that seal into the RunSink — the one way an
// entry reaches the HFTA. A Sharded deployment routes column batches with
// ShardColumns, its one router; the engine drives its shards in turn and
// RunParallel drives one goroutine per shard.
package lfta

import (
	"fmt"
	"sort"

	"repro/internal/attr"
	"repro/internal/cost"
	"repro/internal/feedgraph"
	"repro/internal/hashtab"
	"repro/internal/selvec"
	"repro/internal/stream"
)

// AggSpec describes one aggregate computed by every table: the combine
// operation and the record attribute supplying the value (Input < 0 means
// the constant 1, i.e. count(*)).
type AggSpec struct {
	Op    hashtab.AggOp
	Input int
}

// CountStar is the aggregate list of the paper's queries.
var CountStar = []AggSpec{{Op: hashtab.Sum, Input: -1}}

// RunSink receives HFTA transfers as sealed columnar runs — the one
// transfer form: all entries belong to one query relation and one epoch,
// keys is flat n×arity and aggs flat n×naggs in transfer order. The
// slices alias buffer memory owned by the runtime and are valid only for
// the duration of the call (hfta.(*Aggregator).MergeRun copies them into
// the epoch's log), so the receiver handles the whole run at once.
type RunSink func(rel attr.Set, epoch uint32, keys []uint32, aggs []int64)

// DefaultEvictionBatch is the run-buffer capacity used when SetRunSink is
// given a non-positive batch size.
const DefaultEvictionBatch = 256

// Ops are the cumulative operation counts of a runtime.
type Ops struct {
	Probes    uint64 // c1 operations: every hash-table probe/update
	Transfers uint64 // c2 operations: entries transferred to the HFTA
	Records   uint64 // records processed
}

// ActualCost returns probes·c1 + transfers·c2, the measured cost metric.
func (o Ops) ActualCost(c1, c2 float64) float64 {
	return float64(o.Probes)*c1 + float64(o.Transfers)*c2
}

// PerRecordCost normalizes the actual cost by the number of records.
func (o Ops) PerRecordCost(c1, c2 float64) float64 {
	if o.Records == 0 {
		return 0
	}
	return o.ActualCost(c1, c2) / float64(o.Records)
}

// childEdge is one compiled feeding edge: the child's node index and the
// projection plan mapping parent-key positions to the child key.
type childEdge struct {
	node int
	plan []int
}

// node is one relation's compiled cascade state. The feeding graph is
// static for the lifetime of a runtime, so it is flattened at
// construction into an index-addressed array: the per-probe path does
// pointer and slice loads only, no map lookups on relation sets (which
// profiled as ~10% of the record hot path before the flattening).
type node struct {
	rel      attr.Set
	tab      *hashtab.Table
	isQuery  bool
	contig   bool      // rel is attributes 0..arity-1: projecting a record of that arity is the identity
	ids      []attr.ID // rel's attribute ids, for gathering record runs
	children []childEdge
}

// Runtime executes one configuration.
type Runtime struct {
	aggs   []AggSpec
	nodes  []node                      // compiled cascade, indexed as cfg.Rels
	rawIdx []int                       // node indices of the raw (record-probed) relations
	flush  []int                       // node indices, parents strictly before children
	tables map[attr.Set]*hashtab.Table // relation→table view for stats and tests
	epoch  uint32
	ops    Ops

	// Transfer path (SetRunSink): one buffered run per query node,
	// sealing at batchCap entries. Buffers hold entries of a single epoch
	// — both ingest paths flush them before adopting a new epoch tag.
	// Without a run sink transfers are counted and discarded.
	runSink  RunSink
	batchCap int
	runBufs  []evRunBuf

	// Per-record state (Process): the projected key and the deltas.
	keyBuf   []uint32
	deltaBuf []int64

	// Columnar-path state (ProcessColumnsSel): the per-relation key-column
	// selection scratch, the saturated selection ProcessColumns hands it,
	// whether every aggregate input is the constant 1 (count(*)-style, the
	// common case — the delta run is then a prefilled block of ones reused
	// verbatim), the delta run, and per-cascade-depth run scratch.
	colSel     [][]uint32
	allSel     selvec.Bitmap
	constDelta bool
	deltaRun   []int64
	runFrames  []*runFrame
}

// runFrame is the reusable scratch of one cascade depth: the child key
// columns a victim run is projected into, the saturated selection over
// the run, and the victims the run evicts (at depth 0, the raw victims or
// the flush chunk). Each depth owns its selection, because a child's
// recursion resizes its own under its siblings. Frames are
// pointer-stable so deeper cascades can grow the stack without
// invalidating shallower levels.
type runFrame struct {
	cols    [][]uint32
	sel     selvec.Bitmap
	victims hashtab.VictimRun
}

// drainChunk is how many entries the epoch flush drains from a table
// before cascading them. It bounds every flush-time victim run and the
// scratch that holds it: large chunks (512 entries) raise peak heap on
// the sharded pipeline, while 64 still batches the child probes.
const drainChunk = 64

// evRunBuf accumulates one query node's HFTA transfers in columnar form
// (flat keys, flat aggs) until the run seals — batchCap entries, an
// epoch change, or FlushEpoch. Victim runs append as block copies, split
// so the buffer never holds more than batchCap entries.
type evRunBuf struct {
	keys []uint32
	aggs []int64
	n    int
}

// New builds a runtime for the configuration with the given bucket
// allocation. Seed derives per-table hash seeds. A non-nil sink is
// installed as SetRunSink(sink, 0); with a nil sink query evictions are
// counted but discarded until SetRunSink installs one.
func New(cfg *feedgraph.Config, alloc cost.Alloc, aggs []AggSpec, seed uint64, sink RunSink) (*Runtime, error) {
	if len(aggs) == 0 {
		return nil, fmt.Errorf("lfta: need at least one aggregate")
	}
	ops := make([]hashtab.AggOp, len(aggs))
	for i, a := range aggs {
		ops[i] = a.Op
	}
	r := &Runtime{
		aggs:   append([]AggSpec(nil), aggs...),
		nodes:  make([]node, len(cfg.Rels)),
		tables: make(map[attr.Set]*hashtab.Table, len(cfg.Rels)),
	}
	index := make(map[attr.Set]int, len(cfg.Rels))
	for i, rel := range cfg.Rels {
		b, err := alloc.Buckets(rel)
		if err != nil {
			return nil, err
		}
		t, err := hashtab.New(rel, b, ops, seed+uint64(i)*0x9e3779b97f4a7c15+1)
		if err != nil {
			return nil, err
		}
		contig := true
		for j, id := range rel.IDs() {
			if int(id) != j {
				contig = false
				break
			}
		}
		r.nodes[i] = node{rel: rel, tab: t, isQuery: cfg.IsQuery(rel), contig: contig, ids: rel.IDs()}
		r.tables[rel] = t
		index[rel] = i
	}
	r.constDelta = true
	for _, a := range aggs {
		if a.Input >= 0 {
			r.constDelta = false
			break
		}
	}
	for i, rel := range cfg.Rels {
		for _, child := range cfg.Children(rel) {
			r.nodes[i].children = append(r.nodes[i].children, childEdge{
				node: index[child],
				plan: projectionPlan(rel, child),
			})
		}
	}
	for _, rel := range cfg.Raws() {
		r.rawIdx = append(r.rawIdx, index[rel])
	}
	order := append([]attr.Set(nil), cfg.Rels...)
	sort.Slice(order, func(i, j int) bool {
		if a, b := order[i].Size(), order[j].Size(); a != b {
			return a > b
		}
		return order[i] < order[j]
	})
	for _, rel := range order {
		r.flush = append(r.flush, index[rel])
	}
	if sink != nil {
		r.SetRunSink(sink, 0)
	}
	return r, nil
}

// projectionPlan returns, for each attribute of child, its index within
// parent's projected key (both in attribute order).
func projectionPlan(parent, child attr.Set) []int {
	pids := parent.IDs()
	pos := make(map[attr.ID]int, len(pids))
	for i, id := range pids {
		pos[id] = i
	}
	cids := child.IDs()
	plan := make([]int, len(cids))
	for i, id := range cids {
		plan[i] = pos[id]
	}
	return plan
}

// SetRunSink installs the columnar transfer path: query evictions
// accumulate per query node as flat (keys, aggs) runs and are handed to
// fn sealed — at batchSize entries (DefaultEvictionBatch if batchSize
// <= 0), at every epoch change, and inside FlushEpoch — so per-epoch
// results are complete at epoch boundaries and every run carries exactly
// one epoch tag.
func (r *Runtime) SetRunSink(fn RunSink, batchSize int) {
	if batchSize <= 0 {
		batchSize = DefaultEvictionBatch
	}
	r.runSink = fn
	r.batchCap = batchSize
	if r.runBufs == nil {
		r.runBufs = make([]evRunBuf, len(r.nodes))
	}
}

// Ops returns the cumulative operation counters.
func (r *Runtime) Ops() Ops { return r.ops }

// TableStats exposes each table's hashtab counters, keyed by relation;
// used for measured collision rates and flow-length estimation.
func (r *Runtime) TableStats() map[attr.Set]hashtab.Stats {
	out := make(map[attr.Set]hashtab.Stats, len(r.tables))
	for rel, t := range r.tables {
		out[rel] = t.Stats()
	}
	return out
}

// ResetTableStats zeroes the per-table counters while preserving the
// runtime's cumulative operation counts; the adaptive engine calls this at
// epoch boundaries so collision-rate and flow-length measurements reflect
// the current epoch only.
func (r *Runtime) ResetTableStats() {
	for _, t := range r.tables {
		t.ResetStats()
	}
}

// Process feeds one record into the raw tables. epoch tags any evictions
// it causes; the engine must call FlushEpoch before the first record of a
// new epoch.
func (r *Runtime) Process(rec stream.Record, epoch uint32) {
	r.beginEpoch(epoch)
	r.ops.Records++
	if cap(r.deltaBuf) < len(r.aggs) {
		r.deltaBuf = make([]int64, len(r.aggs))
	}
	deltas := r.deltaBuf[:len(r.aggs)]
	for i, a := range r.aggs {
		if a.Input < 0 {
			deltas[i] = 1
		} else {
			deltas[i] = int64(rec.Attrs[a.Input])
		}
	}
	f := r.runFrame(0)
	for _, ni := range r.rawIdx {
		n := &r.nodes[ni]
		// The raw relation is usually the record's full attribute vector
		// (the single-raw configuration): probe it directly instead of
		// copying through the projection buffer. ProbeInto does not
		// retain the key.
		key := rec.Attrs
		if !n.contig || len(key) != n.tab.Arity() {
			r.keyBuf = n.rel.Project(rec.Attrs, r.keyBuf)
			key = r.keyBuf
		}
		r.ops.Probes++
		f.victims.Reset()
		if n.tab.ProbeInto(key, deltas, &f.victims) {
			r.cascadeRun(ni, &f.victims, 1)
		}
	}
}

// runFrame returns the columnar-path scratch for one cascade depth,
// growing the stack on first use of a depth.
func (r *Runtime) runFrame(depth int) *runFrame {
	for len(r.runFrames) <= depth {
		r.runFrames = append(r.runFrames, &runFrame{})
	}
	return r.runFrames[depth]
}

// cascadeRun routes a run of entries that left a node's table: each
// child table is probed with the whole run at once (keys projected into
// the child's key columns under the depth's saturated selection,
// aggregates passed as the child's deltas verbatim), recursing on the
// children's own victims; a query node's run then transfers to the HFTA.
// The feeding graph is a tree and entries stay in leaving order, so every
// table sees exactly the probe sequence of a depth-first cascade of one
// entry at a time.
func (r *Runtime) cascadeRun(ni int, vr *hashtab.VictimRun, depth int) {
	m := vr.Len()
	if m == 0 {
		return
	}
	nd := &r.nodes[ni]
	if len(nd.children) > 0 {
		a := nd.tab.Arity()
		f := r.runFrame(depth)
		f.sel = selvec.Grow(f.sel, m)
		f.sel.SetAll(m)
		for _, edge := range nd.children {
			for len(f.cols) < len(edge.plan) {
				f.cols = append(f.cols, nil)
			}
			cols := f.cols[:len(edge.plan)]
			for j, p := range edge.plan {
				c := cols[j]
				if cap(c) < m {
					c = make([]uint32, m)
				}
				c = c[:m]
				for i := range c {
					c[i] = vr.Keys[i*a+p]
				}
				cols[j] = c
			}
			r.ops.Probes += uint64(m)
			r.nodes[edge.node].tab.ProbeColumnsSelInto(cols, vr.Aggs, m, f.sel, &f.victims)
			r.cascadeRun(edge.node, &f.victims, depth+1)
		}
	}
	if !nd.isQuery {
		return
	}
	r.ops.Transfers += uint64(m)
	if r.runSink == nil {
		return
	}
	// The victim run already is the columnar transfer layout: append it
	// to the node's buffered run as block copies, sealing whenever the
	// buffer reaches batchCap so it never grows past it.
	b := &r.runBufs[ni]
	a, na := nd.tab.Arity(), len(r.aggs)
	for i := 0; i < m; {
		k := min(m-i, r.batchCap-b.n)
		b.keys = append(b.keys, vr.Keys[i*a:(i+k)*a]...)
		b.aggs = append(b.aggs, vr.Aggs[i*na:(i+k)*na]...)
		b.n += k
		i += k
		if b.n >= r.batchCap {
			r.flushRun(ni)
		}
	}
}

// beginEpoch adopts a batch's epoch tag. Columnar transfer runs carry
// exactly one epoch, so any runs still buffered under the previous tag
// seal first.
func (r *Runtime) beginEpoch(epoch uint32) {
	if r.runSink != nil && epoch != r.epoch {
		r.flushRuns()
	}
	r.epoch = epoch
}

// flushRun seals one node's buffered columnar run into the run sink and
// resets the buffer for reuse.
func (r *Runtime) flushRun(ni int) {
	b := &r.runBufs[ni]
	if b.n == 0 {
		return
	}
	r.runSink(r.nodes[ni].rel, r.epoch, b.keys, b.aggs)
	b.keys = b.keys[:0]
	b.aggs = b.aggs[:0]
	b.n = 0
}

// flushRuns seals every node's buffered columnar run.
func (r *Runtime) flushRuns() {
	for ni := range r.runBufs {
		r.flushRun(ni)
	}
}

// FlushEpoch performs the end-of-epoch update: tables are drained from
// the raw level down, in slot order, drainChunk entries at a time, and
// each chunk cascades into the tables its relation feeds (and to the
// HFTA for queries) before the next is drained; collision victims during
// the flush cascade further down immediately. Afterwards every table is
// empty and every buffered run has reached the run sink.
func (r *Runtime) FlushEpoch() {
	f := r.runFrame(0)
	for _, ni := range r.flush {
		tab := r.nodes[ni].tab
		for pos := 0; pos < tab.Buckets(); {
			pos = tab.DrainInto(&f.victims, pos, drainChunk)
			r.cascadeRun(ni, &f.victims, 1)
		}
	}
	if r.runSink != nil {
		r.flushRuns()
	}
}
