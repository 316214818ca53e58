// Package core is the paper's system put together: a two-level
// multiple-aggregation engine that plans an LFTA configuration (which
// phantoms to instantiate, how to split the memory budget) for a set of
// group-by queries, executes the stream through it, merges exact answers
// at the HFTA, and optionally re-plans adaptively as the stream's group
// counts and clusteredness drift.
//
// The planning default is the paper's best algorithm, GCSL (greedy by
// increasing collision rates with supernode-linear space allocation),
// under the peak-load constraint of Section 3.3 when one is configured.
package core

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/attr"
	"repro/internal/backoff"
	"repro/internal/choose"
	"repro/internal/cost"
	"repro/internal/epochstore"
	"repro/internal/feedgraph"
	"repro/internal/gen"
	"repro/internal/hfta"
	"repro/internal/lfta"
	"repro/internal/query"
	"repro/internal/selvec"
	"repro/internal/sketch"
	"repro/internal/spacealloc"
	"repro/internal/stream"
)

// Planner chooses a configuration and allocation for a query workload.
type Planner func(g *feedgraph.Graph, groups feedgraph.GroupCounts, m int, p cost.Params) (*choose.Result, error)

// GCSLPlanner is the paper's recommended planner.
func GCSLPlanner(g *feedgraph.Graph, groups feedgraph.GroupCounts, m int, p cost.Params) (*choose.Result, error) {
	return choose.GCSL(g, groups, m, p)
}

// GSPlanner returns a Planner running GS with the given φ.
func GSPlanner(phi float64) Planner {
	return func(g *feedgraph.Graph, groups feedgraph.GroupCounts, m int, p cost.Params) (*choose.Result, error) {
		return choose.GS(g, groups, m, p, phi)
	}
}

// NoPhantomPlanner instantiates only the queries (SL allocation).
func NoPhantomPlanner(g *feedgraph.Graph, groups feedgraph.GroupCounts, m int, p cost.Params) (*choose.Result, error) {
	return choose.NoPhantom(g, groups, m, p, spacealloc.SL)
}

// PeakMethod selects the repair applied when the end-of-epoch cost
// exceeds the peak-load constraint.
type PeakMethod string

// Peak-load repair methods (Section 6.3.4).
const (
	PeakShrink PeakMethod = "shrink"
	PeakShift  PeakMethod = "shift"
)

// AdaptOptions control adaptive re-planning (the paper's Section 8
// direction: configuration choice is fast enough to re-run online).
type AdaptOptions struct {
	Enabled        bool
	EveryEpochs    int     // re-plan cadence in epochs (default 1)
	MinImprovement float64 // fractional modeled-cost gain required to switch (default 0.05)

	// TrackPhantoms maintains a HyperLogLog distinct counter per
	// candidate phantom, so re-planning uses measured group counts for
	// relations that have no hash table (instead of scaling stale
	// estimates by the queries' drift). Costs one hash per candidate per
	// record plus 4 KB per candidate at the default precision.
	TrackPhantoms   bool
	SketchPrecision uint8 // 0 = sketch.DefaultPrecision
}

// ResultHandler receives each query's finalized rows (HAVING applied)
// when an epoch closes, together with the epoch's degradation accounting
// (shared by all queries of the epoch) so consumers know exactly what the
// rows cover. When a handler is installed the engine releases the epoch's
// HFTA state immediately afterwards, so memory stays bounded regardless
// of stream length; without one, results accumulate for later retrieval
// via Results/AllResults.
//
// Ownership: rows is a borrowed view of the HFTA's folded log for the
// epoch. rows, and each row's Key and Aggs, are only valid during the
// call and must not be written: once the handler returns, the header
// array is reused for the next read-out and the log is recycled into
// later epochs (WindowHandler's rule). A handler that keeps results must
// copy them; Engine.Results and AllResults return rows the caller owns.
type ResultHandler func(rel attr.Set, epoch uint32, rows []hfta.Row, deg Degradation)

// Options configure an Engine.
type Options struct {
	M       int          // LFTA memory budget in 4-byte units
	Params  cost.Params  // zero value = cost.DefaultParams()
	Planner Planner      // nil = GCSLPlanner
	Seed    uint64       // hash seeds for the LFTA tables
	PeakEu  float64      // peak-load constraint E_p on E_u; 0 = none
	PeakFix PeakMethod   // repair method when PeakEu is set
	Adapt   AdaptOptions // adaptive re-planning

	// Shards partitions the LFTA level into this many independent
	// instances (Gigascope's one-LFTA-per-interface deployment), each
	// owning its own hash tables sized by the same allocation. Records
	// route by a hash of their full attribute vector, so all records of a
	// group land on one shard and the HFTA merge stays exact. 0 or 1 runs
	// one shard with the base seed and no routing hash — the same LFTA
	// shape, and the paper's single-LFTA deployment table for table.
	//
	// Overload control is unified across shards: Budget is one global
	// per-time-unit budget whose slices are split across shards
	// (demand-proportionally, reconciled at every epoch boundary), and the
	// engine keeps one ledger per shard — the global ledger is their sum,
	// so the Offered == Processed + Dropped + Late identity holds per shard
	// and globally on every epoch.
	Shards int

	// Budget enables overload control: the LFTA may spend at most this
	// many weighted operation units (Params.C1 per probe, Params.C2 per
	// transfer) per stream time unit; records beyond it are shed by the
	// Shed policy and counted per epoch. 0 disables overload control.
	// Admission is decided record by record, in stream order, on every
	// feed (Process, ProcessColumnBatch, Run): each admitted record's
	// measured cost is charged before the next record is offered, so the
	// same stream and seed shed the same records however they arrive. With
	// Shards > 1 the budget is split across shards and reconciled per
	// epoch; see Shards.
	Budget float64

	// Shed picks which records to sacrifice under overload; nil with a
	// positive Budget defaults to DropTail.
	Shed ShedPolicy

	// PeakRepairEpochs enables the online peak-load repair: when the
	// measured end-of-epoch flush cost exceeds PeakEu for this many
	// consecutive epochs, the engine re-applies the PeakFix repair
	// (shrink/shift) to the live allocation. 0 disables; requires PeakEu.
	PeakRepairEpochs int

	// CheckpointPath, when set, makes the engine keep a checkpoint of its
	// state at this path, current as of every epoch boundary: a log of a
	// base image (written atomically, via rename) and one appended delta
	// frame per later boundary, which RestoreCheckpointFile reads back to
	// the last complete boundary. Finish closes it.
	CheckpointPath string

	// Store, when set, persists every finalized epoch's results durably:
	// at each epoch close the finalized rows are handed to an asynchronous
	// persister goroutine over a bounded queue and appended to the store
	// with retried, backed-off writes. The hot path never blocks on the
	// store; epochs that cannot be persisted (store down past the retry
	// budget, queue full) are recorded in the durability ledger (see
	// Engine.Durability) and ingest continues. The engine does not close
	// the store; the caller owns its lifecycle (close after Finish).
	Store *epochstore.Store

	// StoreQueue bounds the persist queue in epochs (default 8). When the
	// store cannot keep up, epochs beyond the bound degrade to unpersisted
	// rather than blocking ingest.
	StoreQueue int

	// StoreBackoff is the persister's retry schedule. The zero value uses
	// the backoff defaults with Seed defaulted from Options.Seed.
	StoreBackoff backoff.Policy

	// WrapRunSink, when set, wraps the LFTA→HFTA transfer channel (the
	// sealed-run sink every deployment uses) — the hook the chaos suite
	// uses to inject sink faults (lfta.FaultySink). Production deployments
	// leave it nil.
	WrapRunSink func(lfta.RunSink) lfta.RunSink

	// OnResults streams finalized epochs out of the engine and bounds
	// its memory; see ResultHandler.
	OnResults ResultHandler

	// OnWindow streams closed sliding windows out of the engine (one
	// call per query relation per window, HAVING applied); see
	// WindowHandler. Without a handler, windowed results accumulate for
	// retrieval via WindowResults/WindowLedgers. Ignored unless the
	// workload declares a window or sketch aggregates.
	OnWindow WindowHandler

	// WindowSketchPrecision is the HLL register exponent for
	// count_distinct sketch aggregates (0 = sketch.DefaultPrecision).
	WindowSketchPrecision uint8

	// DigestCompression is the t-digest δ for percentile/median sketch
	// aggregates (0 = sketch.DefaultCompression).
	DigestCompression float64
}

// Stats summarize an engine's execution.
type Stats struct {
	Ops         lfta.Ops
	ModeledCost float64 // per-record modeled cost of the active plan
	Replans     int     // adaptive re-plans adopted
	Epochs      int     // epochs completed

	// Degradation is the cumulative overload accounting across closed
	// epochs plus the currently open one: Offered records split exactly
	// into Processed + Dropped + Late.
	Degradation Degradation

	// ResultErrors counts epochs-emission errors (Results failures inside
	// the OnResults delivery loop); the first such error is returned by
	// Finish.
	ResultErrors int

	// PeakRepairs counts online peak-load repairs applied because the
	// measured flush cost exceeded PeakEu for PeakRepairEpochs epochs.
	PeakRepairs int

	// Durability is the durable epoch store's accounting (persisted and
	// unpersisted epochs); Enabled is false when no store is attached.
	Durability Durability

	// Windows counts closed sliding windows (0 for tumbling workloads).
	Windows int
}

// Engine is the assembled two-level system.
type Engine struct {
	specs    []*query.Spec
	queries  []attr.Set
	epochLen uint32
	aggs     []lfta.AggSpec

	graph  *feedgraph.Graph
	groups feedgraph.GroupCounts
	opts   Options

	// flowLens holds the last epoch's measured per-relation flow lengths
	// (adaptive mode); it backs opts.Params.FlowLen and is carried by
	// the checkpoint so a restored engine re-plans from the same
	// measurements the crashed one used.
	flowLens map[attr.Set]float64

	plan  *choose.Result
	srt   *lfta.Sharded // the LFTA level: nShards ≥ 1 instances (Figure 1)
	agg   *hfta.Aggregator
	clock *stream.Clock

	totalOps lfta.Ops // ops accumulated across re-plans
	stats    Stats

	specByRel map[attr.Set]*query.Spec

	// Stream position: records admission has seen since construction (or
	// restore), including filtered, late, and shed ones — the replay
	// offset a checkpoint records. Records still in stage are not counted
	// yet; every reader flushes the stage first.
	consumed uint64

	// Overload control (active when opts.Budget > 0): the policy, the
	// stream time unit the budget was last replenished for, and the
	// per-shard slices of the global budget for that time unit with their
	// demand-proportional split weights (reconciled at every epoch
	// boundary). An unsharded engine holds one slice of weight 1.
	shedder     ShedPolicy
	shedTick    uint32
	shedStarted bool
	shardAvail  []float64
	shardWeight []float64

	// Degradation accounting. The open epoch's counters live in shardDeg,
	// one ledger per shard (nShards = max(Options.Shards, 1)) and the only
	// counters admission touches; the open epoch's global ledger is their
	// sum (openDeg), stamped with openEpoch once degInit says a record has
	// opened it. Closed epochs append their per-shard ledgers to hist
	// (whose rows sum to the global ones) and fold the sum into cumDeg. A
	// sharded deployment (nShards > 1) also keeps each shard's cumulative
	// total; a shard's stream position is its cumulative plus open Offered.
	nShards   int
	shardDeg  []Degradation
	shardCum  []Degradation
	openEpoch uint32
	degInit   bool
	hist      epochHistory
	cumDeg    Degradation

	// Online peak-load repair state: consecutive epochs whose measured
	// flush cost exceeded PeakEu, and the last epoch's measured cost.
	overPeak      int
	lastFlushCost float64

	firstResultErr error

	// ckpt is the checkpoint encoder; its buffer is allocated by the first
	// Checkpoint and reused by every later one. ckptLog is the log kept at
	// Options.CheckpointPath (ckptlog.go).
	ckpt    ckptEncoder
	ckptLog ckptLog

	// closing is the read-out of the epoch being closed when the result
	// handler is not its only consumer (sharedReadout): each query's view
	// of its folded HFTA log (hfta.Aggregator.View) in query order, taken
	// once by closeEpochState and read by the pane feed (before HAVING),
	// the persister and the result handler (after); the first two copy.
	// It is empty between epoch closes; its header arrays, one per query,
	// are reused by the next close. emitBuf is the handler-only path's one
	// header array, reused by every query's read-out.
	closing      [][]hfta.Row
	closingEpoch uint32
	emitBuf      []hfta.Row

	// Result emission: emitResults is the row source emitEpoch delivers
	// from (the closing epoch's read-out normally; tests substitute
	// failing sources) and emitRetry is the backoff schedule a transient
	// emission failure is retried on before the epoch's query counts as a
	// ResultError.
	emitResults func(rel attr.Set, epoch uint32) ([]hfta.Row, error)
	emitRetry   backoff.Policy

	// Durable persistence (Options.Store): the async persister pipeline
	// and the ledger of persisted/unpersisted epochs. The ledger always
	// exists (a restored checkpoint can carry durability state even
	// into an engine with no store attached); persist is nil without a
	// store.
	persist *persister
	durable *durableLedger

	// Online group-count sketches for candidate phantoms (adaptive mode
	// with TrackPhantoms), reset every epoch.
	sketches  map[attr.Set]*sketch.HLL
	sketchBuf []uint32

	// The scalar feed's stage: records Process has copied in but admission
	// has not seen yet (see Process for when it is flushed). Nothing about
	// a staged record — ledger, position, sketches, probes — exists until
	// the flush, so every accessor that reads such state flushes first.
	// flushing marks a flush in progress: an epoch close inside it writes
	// a checkpoint and runs handlers, which call those accessors.
	stage    stream.ColumnBatch
	flushing bool

	// Sliding-window state (active when the workload declares a window
	// or sketch aggregates): the pane→window composer, the sketch agg
	// list, the open pane's sketch state (nil without sketch
	// aggregates), and the closed windows' ledgers plus (without an
	// OnWindow handler) their result rows. Pane sketch accumulation runs
	// in the single-threaded admission path, so serialized pane partials
	// — and therefore windowed results — are identical across shard
	// counts.
	winComposer *hfta.Composer
	sketchAggs  []sketch.Agg
	paneSk      *paneSketches
	windowLeds  []hfta.WindowLedger
	windowRows  []hfta.WindowRow

	// winRowScratch is deliverWindows' reused per-query HAVING filter
	// buffer (safe to reuse across handler calls: rows are only valid
	// during the call).
	winRowScratch []hfta.WindowRow

	// Vectorized WHERE state: the compiled filter (nil when the WHERE is
	// empty, which then pays no filter work at all) and the columnar
	// admission scratch (one segment selection bitmap per shard, compact
	// shard-route indices, row gather buffer).
	filter   *query.CompiledFilter
	segSel   []selvec.Bitmap
	shardIdx []int32
	rowBuf   []uint32
}

// stageRun is the scalar feed's stage capacity, matching the SPSC
// pipeline's sealed-run size so the batch kernel sees the same run shape
// on both feeds.
const stageRun = 512

// New builds an engine from GSQL query texts (see package query for the
// dialect). The queries must differ only in grouping attributes. groups
// supplies g_R for every relation of the feeding graph — use
// EstimateGroups to measure it from a stream sample.
func New(sqls []string, groups feedgraph.GroupCounts, opts Options) (*Engine, error) {
	specs, err := query.ParseSet(sqls)
	if err != nil {
		return nil, err
	}
	return NewFromSpecs(specs, groups, opts)
}

// NewFromSample builds an engine whose group-count estimates are measured
// from a warm-up sample of the stream — the usual deployment flow.
func NewFromSample(sqls []string, sample []stream.Record, opts Options) (*Engine, error) {
	specs, err := query.ParseSet(sqls)
	if err != nil {
		return nil, err
	}
	queries := make([]attr.Set, len(specs))
	for i, s := range specs {
		queries[i] = s.GroupBy
	}
	groups, err := EstimateGroups(sample, queries)
	if err != nil {
		return nil, err
	}
	return NewFromSpecs(specs, groups, opts)
}

// NewFromSpecs builds an engine from parsed queries.
func NewFromSpecs(specs []*query.Spec, groups feedgraph.GroupCounts, opts Options) (*Engine, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: no queries")
	}
	if opts.M <= 0 {
		return nil, fmt.Errorf("core: memory budget M must be positive, got %d", opts.M)
	}
	if n, k := len(specs[0].Aggs), len(specs[0].Sketches); max(n, k) > ckptMaxAggs {
		return nil, fmt.Errorf("core: %d aggregates and %d sketch aggregates; a checkpoint holds at most %d of each", n, k, ckptMaxAggs)
	}
	if s0 := specs[0]; (s0.Windowed() || len(s0.Sketches) > 0) && len(specs) > ckptMaxPaneRels {
		return nil, fmt.Errorf("core: %d windowed queries; a checkpoint pane holds at most %d", len(specs), ckptMaxPaneRels)
	}
	if opts.Params.C1 == 0 && opts.Params.C2 == 0 {
		opts.Params = cost.DefaultParams()
	}
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	if opts.Planner == nil {
		opts.Planner = GCSLPlanner
	}
	if opts.PeakEu > 0 && opts.PeakFix == "" {
		opts.PeakFix = PeakShift
	}
	if opts.Adapt.Enabled {
		if opts.Adapt.EveryEpochs <= 0 {
			opts.Adapt.EveryEpochs = 1
		}
		if opts.Adapt.MinImprovement <= 0 {
			opts.Adapt.MinImprovement = 0.05
		}
	}
	if opts.Budget < 0 {
		return nil, fmt.Errorf("core: processing budget must be non-negative, got %v", opts.Budget)
	}
	if opts.Budget > 0 && opts.Shed == nil {
		opts.Shed = DropTail{}
	}
	if opts.PeakRepairEpochs > 0 && opts.PeakEu <= 0 {
		return nil, fmt.Errorf("core: PeakRepairEpochs requires a PeakEu constraint")
	}
	if opts.Shards < 0 {
		return nil, fmt.Errorf("core: shard count must be non-negative, got %d", opts.Shards)
	}

	e := &Engine{
		specs:     specs,
		epochLen:  specs[0].EpochLen,
		aggs:      specs[0].AggSpecs(),
		groups:    groups,
		opts:      opts,
		shedder:   opts.Shed,
		specByRel: make(map[attr.Set]*query.Spec, len(specs)),
		durable:   newDurableLedger(),
		emitRetry: backoff.Policy{Seed: opts.Seed},
	}
	e.emitResults = e.closingResults
	// Compile the WHERE once. An empty WHERE leaves the filter nil, so
	// unfiltered workloads pay nothing.
	if !specs[0].Where.Empty() {
		e.filter = specs[0].Where.Compile()
	}
	e.nShards = max(opts.Shards, 1)
	e.hist.n = e.nShards
	e.segSel = make([]selvec.Bitmap, e.nShards)
	e.shardAvail = make([]float64, e.nShards)
	e.shardWeight = make([]float64, e.nShards)
	for i := range e.shardWeight {
		e.shardWeight[i] = 1 / float64(e.nShards)
	}
	e.shardDeg = make([]Degradation, e.nShards)
	if e.nShards > 1 {
		e.shardCum = make([]Degradation, e.nShards)
	}
	for _, s := range specs {
		e.queries = append(e.queries, s.GroupBy)
		if prev, dup := e.specByRel[s.GroupBy]; dup {
			return nil, fmt.Errorf("core: queries %q and %q share grouping %v", prev, s, s.GroupBy)
		}
		e.specByRel[s.GroupBy] = s
	}
	g, err := feedgraph.New(e.queries)
	if err != nil {
		return nil, err
	}
	e.graph = g
	for _, r := range g.Relations() {
		if _, err := groups.Get(r); err != nil {
			return nil, fmt.Errorf("core: %v (run EstimateGroups over a sample first)", err)
		}
	}
	if err := e.replan(); err != nil {
		return nil, err
	}
	if opts.Adapt.Enabled && opts.Adapt.TrackPhantoms {
		prec := opts.Adapt.SketchPrecision
		if prec == 0 {
			prec = sketch.DefaultPrecision
		}
		e.sketches = make(map[attr.Set]*sketch.HLL, len(g.Phantoms))
		for _, ph := range g.Phantoms {
			h, err := sketch.New(prec)
			if err != nil {
				return nil, err
			}
			e.sketches[ph] = h
		}
	}
	if err := e.initWindowing(); err != nil {
		return nil, err
	}
	e.clock = stream.NewClock(e.epochLen)
	if opts.Store != nil {
		// Started last so a failed construction never leaks the goroutine.
		pol := opts.StoreBackoff
		if pol.Seed == 0 {
			pol.Seed = opts.Seed
		}
		e.persist = newPersister(opts.Store, opts.StoreQueue, pol, e.durable)
	}
	return e, nil
}

// planCandidate runs the planner for the current group counts and applies
// the peak-load repair, without touching the running state.
func (e *Engine) planCandidate() (*choose.Result, error) {
	res, err := e.opts.Planner(e.graph, e.groups, e.opts.M, e.opts.Params)
	if err != nil {
		return nil, err
	}
	if e.opts.PeakEu > 0 {
		var fixed cost.Alloc
		switch e.opts.PeakFix {
		case PeakShift:
			fixed, err = spacealloc.Shift(res.Config, e.groups, res.Alloc, e.opts.Params, e.opts.PeakEu)
		case PeakShrink:
			fixed, err = spacealloc.Shrink(res.Config, e.groups, res.Alloc, e.opts.Params, e.opts.PeakEu)
		default:
			return nil, fmt.Errorf("core: unknown peak-load method %q", e.opts.PeakFix)
		}
		if err != nil {
			return nil, fmt.Errorf("core: peak-load repair: %v", err)
		}
		res.Alloc = fixed
		if res.Cost, err = cost.PerRecord(res.Config, e.groups, fixed, e.opts.Params); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// adopt swaps in a fresh runtime executing the plan. Must only run at
// epoch boundaries (tables empty). HFTA state survives the swap.
func (e *Engine) adopt(res *choose.Result) error {
	if e.agg == nil {
		agg, err := hfta.New(e.queries, e.aggs)
		if err != nil {
			return err
		}
		e.agg = agg
	}
	// Buffered transfers: evictions reach the HFTA through the runtime's
	// run buffers, keeping the record hot path allocation-free — sealed
	// (keys, aggs) runs appended by MergeRun, one lock hold per run and
	// (query, epoch) log. A WrapRunSink
	// hook (chaos/fault injection) sits in front of that same sink.
	// FlushEpoch drains the buffers, so every endEpoch read of HFTA state
	// sees the complete epoch.
	sink := lfta.RunSink(e.agg.MergeRun)
	if e.opts.WrapRunSink != nil {
		sink = e.opts.WrapRunSink(sink)
	}
	srt, err := lfta.NewSharded(res.Config, res.Alloc, e.aggs, e.opts.Seed, nil, e.nShards)
	if err != nil {
		return err
	}
	srt.SetRunSink(sink, 0)
	if e.srt != nil {
		// Fold the outgoing runtime's counters into the cross-replan totals.
		ops := e.srt.Ops()
		e.totalOps.Probes += ops.Probes
		e.totalOps.Transfers += ops.Transfers
		e.totalOps.Records += ops.Records
	}
	e.plan, e.srt = res, srt
	e.stats.ModeledCost = res.Cost
	return nil
}

// replan plans and adopts unconditionally (initial setup).
func (e *Engine) replan() error {
	res, err := e.planCandidate()
	if err != nil {
		return err
	}
	return e.adopt(res)
}

// Plan exposes the active configuration, allocation and modeled cost.
func (e *Engine) Plan() *choose.Result { return e.plan }

// Graph exposes the feeding graph of the workload.
func (e *Engine) Graph() *feedgraph.Graph { return e.graph }

// Groups returns the group-count table the engine currently plans with.
func (e *Engine) Groups() feedgraph.GroupCounts { return e.groups }

// Process feeds one record. Epoch boundaries (per the queries' time
// bucket) trigger the end-of-epoch flush and, if enabled, adaptive
// re-planning.
//
// Timestamps must be non-decreasing across epoch boundaries: a record
// whose timestamp regresses into an already-closed epoch cannot be
// assigned correctly anymore (its epoch was flushed), so it is dropped
// and counted as Late instead of silently corrupting epoch assignment.
// Configure a stream.OrderedSource upstream to reorder such streams
// within a slack window. Regressions within the open epoch are harmless.
//
// Process is a stager in front of ProcessColumnBatch, the engine's only
// admission code: the record joins the stage, and the stage is admitted
// when it is full or when this record may roll the clock (the clock has
// not started, or the record's epoch is later than the clock's) — so an
// epoch closes, its handlers run and a checkpoint error surfaces inside
// the Process call of the record that ends it. One-lane batches cost more
// than a scalar probe, so nothing else forces a flush.
func (e *Engine) Process(rec stream.Record) error {
	if len(rec.Attrs) != e.stage.Width() {
		// The first record, or a caller switching schemas mid-stream: every
		// batch stays rectangular.
		if err := e.flushStage(); err != nil {
			return err
		}
		e.stage.Reset(len(rec.Attrs))
	}
	e.stage.Append(rec.Attrs, rec.Time)
	if e.stage.Len() == stageRun || !e.clock.Started() ||
		(stream.Epoch{Length: e.epochLen}).Of(rec.Time) > e.clock.Current() {
		return e.flushStage()
	}
	return nil
}

// flushStage admits the staged records and empties the stage. It is a
// no-op when re-entered from inside a flush (an epoch close there writes a
// checkpoint and runs handlers, which call the flushing accessors). A
// flush outside Process cannot fail or close an epoch: a staged record
// that might have rolled the clock was flushed by the Process call that
// staged it.
func (e *Engine) flushStage() error {
	if e.flushing || e.stage.Len() == 0 {
		return nil
	}
	e.flushing = true
	err := e.admitBatch(&e.stage)
	e.stage.Reset(e.stage.Width())
	e.flushing = false
	return err
}

// admitRecord is the overload-control step for one on-time record routed
// to shard s: replenish every shard's slice of the budget when stream time
// advances (never on a regression — an adversarial stream alternating
// timestamps earns nothing), ask the shed policy, and on admission probe
// the record at once and charge its measured cost to the shard's slice, so
// the next record's admission sees it. It reports whether the record was
// processed (false = shed).
//
// Admission runs in the single-threaded routing path, in stream order, so
// a stateful shed policy (UniformShed's RNG) draws in a deterministic
// sequence regardless of shard count and feed — the property the
// checkpoint's byte-identical resume guarantee rests on.
func (e *Engine) admitRecord(s int, rec stream.Record, epoch uint32) bool {
	if !e.shedStarted || rec.Time > e.shedTick {
		e.shedStarted = true
		e.shedTick = rec.Time
		for i, w := range e.shardWeight {
			e.shardAvail[i] = e.opts.Budget * w
		}
	}
	if !e.shedder.Admit(rec, e.shardAvail[s] <= 0) {
		e.shardDeg[s].Dropped++
		return false
	}
	e.shardDeg[s].Processed++
	rt := e.srt.Shard(s)
	before := rt.Ops()
	rt.Process(rec, epoch)
	after := rt.Ops()
	e.shardAvail[s] -= float64(after.Probes-before.Probes)*e.opts.Params.C1 +
		float64(after.Transfers-before.Transfers)*e.opts.Params.C2
	return true
}

// endEpoch flushes the LFTA, closes the epoch's degradation accounting,
// emits finalized results, and runs the online repair, adaptive, and
// checkpoint steps. The checkpoint is written last so it reflects a fully
// closed epoch: the record that triggered the roll is not yet counted in
// the stream position and is replayed on restore.
func (e *Engine) endEpoch() error {
	closed := e.closeEpochState()
	if err := e.maybePeakRepair(); err != nil {
		return err
	}
	if err := e.maybeAdapt(closed.Epoch); err != nil {
		return err
	}
	if e.opts.CheckpointPath != "" {
		if err := e.logCheckpoint(); err != nil {
			return fmt.Errorf("core: checkpoint: %w", err)
		}
	}
	return nil
}

// closeEpochState performs the flush/accounting/emit part of an epoch
// boundary shared by endEpoch and Finish, and returns the closed epoch's
// degradation record. It also measures the flush's actual cost for the
// online peak-load repair.
func (e *Engine) closeEpochState() Degradation {
	closed := e.openDeg()
	e.degInit = false
	flushBefore := e.srt.Ops()
	e.srt.FlushEpoch()
	flushAfter := e.srt.Ops()
	e.lastFlushCost = float64(flushAfter.Probes-flushBefore.Probes)*e.opts.Params.C1 +
		float64(flushAfter.Transfers-flushBefore.Transfers)*e.opts.Params.C2
	e.stats.Epochs++
	e.cumDeg.add(closed)
	e.closeShardEpoch(closed.Epoch)
	if e.shedder != nil {
		e.shedder.EpochEnd(closed)
	}
	// One read-out per query serves every consumer of the closed epoch.
	// The composer takes the rows before HAVING (a window's aggregates
	// cover groups no single pane would report) and copies their Aggs;
	// HAVING then compacts each read-out's headers in place for the
	// persister, which copies the rows it keeps, and the handler. The
	// persister is handed its epoch before any handler runs — the durable
	// copy never waits on user code — and windows are delivered before
	// the epoch's own rows, as they always were. With the handler as the
	// only consumer nothing is read ahead: closingResults reads each query
	// out into emitBuf as its turn comes.
	if e.sharedReadout() {
		// Re-extend to the queries' header arrays of the last close.
		e.closing = slices.Grow(e.closing[:0], len(e.queries))[:len(e.queries)]
		e.closingEpoch = closed.Epoch
		for i, q := range e.queries {
			e.closing[i] = e.agg.View(e.closing[i], q, closed.Epoch)
		}
		if e.winComposer != nil {
			e.feedPane(closed)
		}
		for i, spec := range e.specs { // specs and queries are parallel
			e.closing[i] = applyHaving(spec, e.closing[i])
		}
		e.persistEpoch(closed)
		if e.winComposer != nil {
			e.closeWindows(closed)
		}
	}
	e.emitEpoch(closed)
	e.closing = e.closing[:0]
	return closed
}

// sharedReadout reports whether a closed epoch's rows have a consumer
// besides the result handler (the persister or the window composer); both
// are fixed at construction.
func (e *Engine) sharedReadout() bool {
	return e.persist != nil || e.winComposer != nil
}

// applyHaving compacts rows in place to those passing the query's HAVING
// clause; a query without one gets its rows back untouched.
func applyHaving(spec *query.Spec, rows []hfta.Row) []hfta.Row {
	if len(spec.HavingCl) == 0 {
		return rows
	}
	out := rows[:0]
	for _, r := range rows {
		if spec.MatchHaving(r.Aggs) {
			out = append(out, r)
		}
	}
	return out
}

// closingResults is the default emitResults: the closing epoch's shared
// view when there is one, otherwise a view taken into emitBuf for this
// call; HAVING applied either way.
func (e *Engine) closingResults(rel attr.Set, epoch uint32) ([]hfta.Row, error) {
	i := slices.Index(e.queries, rel)
	switch {
	case i < 0:
	case !e.sharedReadout():
		e.emitBuf = e.agg.View(e.emitBuf, rel, epoch)
		return applyHaving(e.specs[i], e.emitBuf), nil
	case len(e.closing) > 0 && epoch == e.closingEpoch:
		return e.closing[i], nil
	}
	return nil, fmt.Errorf("core: no read-out of %v for epoch %d (closing epoch %d)", rel, epoch, e.closingEpoch)
}

// openDeg is the open epoch's global ledger: the sum of the per-shard
// ledgers, so the two agree by construction.
func (e *Engine) openDeg() Degradation {
	d := Degradation{Epoch: e.openEpoch}
	for i := range e.shardDeg {
		d.add(e.shardDeg[i])
	}
	return d
}

// closeShardEpoch appends the per-shard ledgers, whose sum has been
// closed as the global one, to the history and resets them. A sharded
// deployment also folds them into the cumulative per-shard totals and
// reconciles the budget split against the epoch's measured per-shard
// demand.
func (e *Engine) closeShardEpoch(epoch uint32) {
	e.hist.add(epoch, e.shardDeg)
	if e.nShards > 1 {
		for i := range e.shardDeg {
			e.shardCum[i].add(e.shardDeg[i])
			e.shardCum[i].Epoch = epoch
		}
		e.reconcileBudget(e.shardDeg)
	}
	clear(e.shardDeg)
}

// reconcileBudget re-splits the global per-time-unit budget across shards
// in proportion to the closed epoch's measured per-shard demand (EWMA
// over offered records, floored so no shard starves). A skewed partition
// therefore stops wasting budget on idle shards after one epoch, while a
// uniform stream keeps the even split. Deterministic: the weights are a
// pure function of the stream, so they replay identically and are carried
// by the checkpoint.
func (e *Engine) reconcileBudget(epochShards []Degradation) {
	if e.opts.Budget <= 0 {
		return
	}
	var total float64
	for i := range epochShards {
		total += float64(epochShards[i].Offered)
	}
	if total == 0 {
		return
	}
	const alpha = 0.5 // EWMA weight of the newest epoch's demand
	floor := 0.1 / float64(e.nShards)
	var sum float64
	for i := range e.shardWeight {
		w := alpha*(float64(epochShards[i].Offered)/total) + (1-alpha)*e.shardWeight[i]
		if w < floor {
			w = floor
		}
		e.shardWeight[i] = w
		sum += w
	}
	for i := range e.shardWeight {
		e.shardWeight[i] /= sum
	}
}

// maybePeakRepair applies the configured peak-load repair to the live
// allocation once the measured end-of-epoch cost has exceeded PeakEu for
// PeakRepairEpochs consecutive epochs. An unreachable constraint is not
// fatal — shedding remains the backstop — but a failure to adopt the
// repaired plan is.
func (e *Engine) maybePeakRepair() error {
	if e.opts.PeakEu <= 0 || e.opts.PeakRepairEpochs <= 0 {
		return nil
	}
	if e.lastFlushCost <= e.opts.PeakEu {
		e.overPeak = 0
		return nil
	}
	e.overPeak++
	if e.overPeak < e.opts.PeakRepairEpochs {
		return nil
	}
	e.overPeak = 0
	var (
		fixed cost.Alloc
		err   error
	)
	switch e.opts.PeakFix {
	case PeakShrink:
		fixed, err = spacealloc.Shrink(e.plan.Config, e.groups, e.plan.Alloc, e.opts.Params, e.opts.PeakEu)
	default:
		fixed, err = spacealloc.Shift(e.plan.Config, e.groups, e.plan.Alloc, e.opts.Params, e.opts.PeakEu)
	}
	if err != nil {
		return nil // constraint unreachable on the live statistics
	}
	res := &choose.Result{Config: e.plan.Config, Alloc: fixed}
	if res.Cost, err = cost.PerRecord(res.Config, e.groups, fixed, e.opts.Params); err != nil {
		return nil
	}
	if err := e.adopt(res); err != nil {
		return err
	}
	e.stats.PeakRepairs++
	return nil
}

// maybeAdapt runs the adaptive re-planning step for the closed epoch.
func (e *Engine) maybeAdapt(prevEpoch uint32) error {
	if !e.opts.Adapt.Enabled || e.stats.Epochs%e.opts.Adapt.EveryEpochs != 0 {
		return nil
	}
	if e.opts.OnResults == nil {
		// With a result handler the estimates were refreshed inside
		// emitEpoch, before the epoch state was dropped.
		e.refreshGroupEstimates(prevEpoch)
	}
	// Re-evaluate the current plan under the refreshed estimates so the
	// comparison is apples to apples.
	curCost, err := cost.PerRecord(e.plan.Config, e.groups, e.plan.Alloc, e.opts.Params)
	if err != nil {
		curCost = e.plan.Cost
	}
	candidate, err := e.planCandidate()
	if err != nil {
		return err
	}
	if candidate.Cost > curCost*(1-e.opts.Adapt.MinImprovement) {
		e.stats.ModeledCost = curCost
		return nil // not enough improvement: keep the current runtime
	}
	if err := e.adopt(candidate); err != nil {
		return err
	}
	e.stats.Replans++
	return nil
}

// refreshGroupEstimates folds the epoch's measured group counts (from the
// HFTA) and flow lengths (from the LFTA tables) into the planning inputs.
// Queries are measured exactly; phantom estimates scale by the mean drift
// of the queries they cover.
func (e *Engine) refreshGroupEstimates(epoch uint32) {
	drift := 0.0
	n := 0
	for _, q := range e.queries {
		measured := float64(e.agg.GroupCount(q, epoch))
		if measured <= 0 {
			continue
		}
		if old := e.groups[q]; old > 0 {
			drift += measured / old
			n++
		}
		e.groups[q] = measured
	}
	switch {
	case e.sketches != nil:
		// Measured phantom counts from the per-epoch sketches.
		for ph, h := range e.sketches {
			if est := h.Estimate(); est >= 1 {
				e.groups[ph] = est
			}
			h.Reset()
		}
		_ = clampMonotone(e.groups, e.graph)
	case n > 0:
		// No sketches: scale phantom estimates by the queries' mean drift.
		meanDrift := drift / float64(n)
		for _, ph := range e.graph.Phantoms {
			if old := e.groups[ph]; old > 0 {
				e.groups[ph] = old * meanDrift
			}
		}
		_ = clampMonotone(e.groups, e.graph)
	}
	// Flow lengths measured per raw relation feed the rate model. The
	// table counters are reset afterwards so the next measurement covers
	// one epoch, not the whole history.
	stats := e.srt.TableStats()
	flow := make(map[attr.Set]float64, len(stats))
	for rel, st := range stats {
		flow[rel] = st.AvgFlowLength()
	}
	e.srt.ResetTableStats()
	e.installFlowLens(flow)
}

// installFlowLens records measured flow lengths and wires them into the
// cost model; the checkpoint carries the map so a restored engine
// re-plans from the same measurements.
func (e *Engine) installFlowLens(flow map[attr.Set]float64) {
	e.flowLens = flow
	e.opts.Params.FlowLen = func(rel attr.Set) float64 {
		if l, ok := flow[rel]; ok {
			return l
		}
		return 1
	}
}

// clampMonotone repairs g_R ≤ g_S for R ⊆ S after drift scaling.
func clampMonotone(groups feedgraph.GroupCounts, g *feedgraph.Graph) error {
	rels := g.Relations()
	// Process wider relations last so they absorb the max of their subsets.
	attr.SortSets(rels)
	for i := len(rels) - 1; i >= 0; i-- {
		s := rels[i]
		for _, r := range rels {
			if r.ProperSubsetOf(s) && groups[r] > groups[s] {
				groups[s] = groups[r]
			}
		}
	}
	return groups.CheckMonotone()
}

// emitEpoch delivers one closed epoch to the result handler and drops its
// state. Adaptive group-count refreshes read the epoch's counts before
// this runs (refreshGroupEstimates is called from maybeAdapt after emit
// only when no handler is installed — with a handler, the counts are
// captured here first). A failing row source is retried on the engine's
// backoff schedule (capped exponential with seeded jitter — the same
// discipline as the store persister) before the query counts as a
// ResultError; errors are counted in Stats, the first one is propagated
// from Finish, and the remaining queries of the epoch are still
// delivered.
func (e *Engine) emitEpoch(closed Degradation) {
	if e.opts.OnResults == nil {
		return
	}
	epoch := closed.Epoch
	if e.opts.Adapt.Enabled {
		// Capture measured group counts before the state is dropped.
		e.refreshGroupEstimates(epoch)
	}
	// One retry closure serves every query of the epoch.
	var (
		q    attr.Set
		rows []hfta.Row
	)
	fetch := func() (err error) {
		rows, err = e.emitResults(q, epoch)
		return err
	}
	for _, q = range e.queries {
		if err := e.emitRetry.Retry(fetch); err != nil {
			e.stats.ResultErrors++
			if e.firstResultErr == nil {
				e.firstResultErr = fmt.Errorf("core: emitting epoch %d of %v: %w", epoch, q, err)
			}
			continue
		}
		e.opts.OnResults(q, epoch, rows, closed)
	}
	e.agg.Drop(epoch)
}

// Finish flushes the final epoch and returns the first error swallowed
// while emitting results (or else the error closing the checkpoint log),
// if any. Call once after the last record. Finish does not write a
// checkpoint: the checkpoint log (if configured) stays at the last closed
// epoch boundary, so a later restore replays the final epoch in full;
// Finish closes its descriptor.
func (e *Engine) Finish() error {
	if err := e.flushStage(); err != nil {
		return err
	}
	if e.degInit {
		e.closeEpochState()
	}
	if e.winComposer != nil {
		// Flush trailing windows, including partially-filled ones.
		e.deliverWindows(e.winComposer.CloseAll())
	}
	if e.persist != nil {
		// Drain the persister so every finalized epoch has been resolved
		// (persisted or recorded as unpersisted) before the caller reads
		// Stats or closes the store.
		e.persist.stop()
	}
	if err := e.ckptLog.close(); err != nil && e.firstResultErr == nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return e.firstResultErr
}

// ProcessColumnBatch feeds a column-major batch of records — the engine's
// one admission path, which Process stages for and Run reads into. The
// compiled WHERE runs over whole columns into the batch's selection bitmap
// (b.Sel); dead lanes are never compacted away, the selection threads
// through shard routing and the probe setup instead. Epoch rollovers are
// found by scanning the timestamp column at the selected lanes (filtered
// records never touch the clock), and the batch is split at each boundary
// so ledger, checkpoint, pane, and persistence semantics do not depend on
// where batches are cut: a mid-batch checkpoint records the stream position
// strictly before the rolling record.
//
// Under a budget (Options.Budget > 0) decode, WHERE, routing and epoch
// splitting stay columnar and only admission is per record: each selected
// on-time lane, in lane order, goes through admitRecord, which probes an
// admitted record at once and charges its measured cost before the next
// lane is offered, so the same records are shed however the stream is cut
// into batches.
//
// Outcomes — results, ledgers, stream position, checkpoint contents — are
// invariant under batch splitting, down to one record per batch; the engine
// equivalence suite pins this.
func (e *Engine) ProcessColumnBatch(b *stream.ColumnBatch) error {
	// Mixed feeds: records staged by Process come first in stream order.
	if err := e.flushStage(); err != nil {
		return err
	}
	return e.admitBatch(b)
}

// admitBatch is ProcessColumnBatch behind the stage flush.
func (e *Engine) admitBatch(b *stream.ColumnBatch) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	if len(b.Time) != n {
		return fmt.Errorf("core: column batch of %d records has %d timestamps", n, len(b.Time))
	}

	// Vectorized WHERE into the batch's selection vector; an empty WHERE
	// selects every lane.
	sel := selvec.Grow(selvec.Bitmap(b.Sel), n)
	if e.filter != nil {
		e.filter.EvalColumns(b.Cols, n, sel)
	} else {
		sel.SetAll(n)
	}
	b.Sel = sel

	base := e.consumed
	m := sel.Count(n)

	// Shard routing for every selected lane up front (late lanes route
	// too: their ledgers are per-shard), compact in ascending lane order.
	// One shard needs no routing: six stays nil and every lane is shard 0's.
	var six []int32
	if e.nShards > 1 && m > 0 {
		if cap(e.shardIdx) < m {
			e.shardIdx = make([]int32, m)
		}
		six = e.shardIdx[:m]
		e.srt.ShardColumns(b.Cols, n, sel, six)
	}
	budgeted := e.opts.Budget > 0

	// Sketch and pane accumulation need record-major rows (as per-record
	// admission does); gather only when one of them is active.
	needRows := len(e.sketches) != 0 || e.paneSk != nil

	// Epoch segment: the on-time selected lanes since the last roll, one
	// selection per shard, flushed through the selection-aware probe with
	// no compaction (empty throughout under a budget).
	for s := range e.segSel {
		e.segSel[s] = selvec.Grow(e.segSel[s], n)
		e.segSel[s].Clear(n)
	}
	segCount := 0
	var segEpoch uint32

	k := 0 // compact index into six, advancing with each selected lane
	nw := selvec.Words(n)
	for wi := 0; wi < nw; wi++ {
		for w := sel[wi]; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			s := 0
			if six != nil {
				s = int(six[k])
				k++
			}
			epoch, rolled, late := e.clock.Observe(b.Time[i])
			if rolled {
				if segCount > 0 {
					// Flush the closing epoch's segment before the epoch
					// close.
					e.probeSegment(b.Cols, n, segEpoch)
					segCount = 0
				}
				// The checkpoint must record the position strictly before
				// the rolling record, filtered lanes included.
				e.consumed = base + uint64(i)
				if err := e.endEpoch(); err != nil {
					return err
				}
			}
			// A late record is charged to its *arrival* epoch (the clamped
			// current one); if it is the epoch's first record, the ledger
			// must still open here so the epoch — and its pane — closes
			// with the Late count instead of leaking it.
			if !e.degInit {
				e.degInit = true
				e.openEpoch = epoch
			}
			sd := &e.shardDeg[s]
			sd.Offered++
			switch {
			case late:
				sd.Late++
				continue
			case budgeted:
				// The row buffer is reused by the next lane: a shed policy
				// may read rec.Attrs only during the call.
				e.rowBuf = b.Row(i, e.rowBuf)
				if !e.admitRecord(s, stream.Record{Attrs: e.rowBuf, Time: b.Time[i]}, epoch) {
					continue
				}
			default:
				sd.Processed++
				e.segSel[s].Set(i)
				segCount++
				segEpoch = epoch
			}
			if needRows {
				if !budgeted {
					e.rowBuf = b.Row(i, e.rowBuf)
				}
				if len(e.sketches) != 0 {
					for rel, h := range e.sketches {
						e.sketchBuf = rel.Project(e.rowBuf, e.sketchBuf)
						h.AddKey(e.sketchBuf)
					}
				}
				if e.paneSk != nil {
					e.paneSk.observe(e.rowBuf)
				}
			}
		}
	}
	if segCount > 0 {
		e.probeSegment(b.Cols, n, segEpoch)
	}
	e.consumed = base + uint64(n)
	return nil
}

// probeSegment feeds each shard its lanes of the gathered segment — all of
// one epoch — and empties the selections.
func (e *Engine) probeSegment(cols [][]uint32, n int, epoch uint32) {
	for s, seg := range e.segSel {
		e.srt.Shard(s).ProcessColumnsSel(cols, n, seg, epoch)
		seg.Clear(n)
	}
}

// Run processes an entire source and finishes. Every source runs through
// the vectorized batch path, with or without a budget: ReadColumns decodes
// straight into columns when the source can (stream.ColumnSource) and
// transposes through Next when it cannot.
func (e *Engine) Run(src stream.Source) error {
	var cb stream.ColumnBatch
	for stream.ReadColumns(src, &cb, stream.ColumnBatchLen) > 0 {
		if err := e.ProcessColumnBatch(&cb); err != nil {
			return err
		}
	}
	if err := src.Err(); err != nil {
		return err
	}
	return e.Finish()
}

// Results returns the finalized rows of one query for an epoch, with the
// query's HAVING clause applied.
func (e *Engine) Results(rel attr.Set, epoch uint32) ([]hfta.Row, error) {
	spec, ok := e.specByRel[rel]
	if !ok {
		return nil, fmt.Errorf("core: %v is not a registered query", rel)
	}
	return applyHaving(spec, e.agg.Rows(rel, epoch)), nil
}

// AllResults returns every finalized row across queries and epochs with
// HAVING applied.
func (e *Engine) AllResults() []hfta.Row {
	var out []hfta.Row
	for _, r := range e.agg.AllRows() {
		if spec := e.specByRel[r.Rel]; spec == nil || spec.MatchHaving(r.Aggs) {
			out = append(out, r)
		}
	}
	return out
}

// Epochs lists the epochs with results for a query.
func (e *Engine) Epochs(rel attr.Set) []uint32 { return e.agg.Epochs(rel) }

// Ops returns cumulative LFTA operation counts, across re-plans and
// summed over shards.
func (e *Engine) Ops() lfta.Ops {
	_ = e.flushStage() // cannot fail outside Process; see flushStage
	ops := e.srt.Ops()
	return lfta.Ops{
		Probes:    e.totalOps.Probes + ops.Probes,
		Transfers: e.totalOps.Transfers + ops.Transfers,
		Records:   e.totalOps.Records + ops.Records,
	}
}

// NumShards returns the number of LFTA shards the engine runs (1 when
// Options.Shards is 0 or 1).
func (e *Engine) NumShards() int { return e.nShards }

// ShardDegradations returns each shard's cumulative overload accounting —
// closed epochs plus the open one. The entries sum to Stats().Degradation.
// Nil when the engine runs unsharded.
func (e *Engine) ShardDegradations() []Degradation {
	if e.nShards <= 1 {
		return nil
	}
	_ = e.flushStage()
	out := make([]Degradation, e.nShards)
	for i := range out {
		out[i] = e.shardCum[i]
		out[i].add(e.shardDeg[i])
	}
	return out
}

// ShardEpochDegradations returns the per-shard ledgers of every closed
// epoch, oldest first; each inner slice has one entry per shard and sums
// exactly to the corresponding EpochDegradations entry. Nil when the
// engine runs unsharded.
func (e *Engine) ShardEpochDegradations() [][]Degradation {
	if e.nShards <= 1 {
		return nil
	}
	out := make([][]Degradation, len(e.hist.epochs))
	for i := range out {
		out[i] = make([]Degradation, e.nShards)
		for s := range out[i] {
			out[i][s] = e.hist.shard(i, s)
		}
	}
	return out
}

// ShardPositions returns the cumulative number of records routed to each
// shard (including late and shed ones; a restored engine continues from the
// image's counts) — the per-shard stream positions the checkpoint
// records, which are each shard's cumulative Offered. Nil when unsharded.
func (e *Engine) ShardPositions() []uint64 {
	if e.nShards <= 1 {
		return nil
	}
	_ = e.flushStage()
	out := make([]uint64, e.nShards)
	for i := range out {
		out[i] = e.shardCum[i].Offered + e.shardDeg[i].Offered
	}
	return out
}

// Stats returns execution statistics. Stats.Degradation is cumulative
// across closed epochs plus the open one (its Epoch field is meaningless
// in the aggregate).
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Ops = e.Ops() // flushes the stage
	s.Degradation = e.cumDeg
	s.Degradation.add(e.openDeg())
	s.Durability = e.Durability()
	return s
}

// Consumed returns the number of records offered to the engine since
// construction or restore — including filtered, late, and shed records —
// i.e. the stream position a checkpoint records.
func (e *Engine) Consumed() uint64 {
	_ = e.flushStage()
	return e.consumed
}

// EpochDegradations returns the per-epoch overload accounting of every
// closed epoch, oldest first.
func (e *Engine) EpochDegradations() []Degradation {
	var out []Degradation
	for i := range e.hist.epochs {
		out = append(out, e.hist.global(i))
	}
	return out
}

// TableDiagnostic compares one LFTA table's modeled and measured
// behaviour — the operator's view of how well the planner's assumptions
// hold on the live stream.
type TableDiagnostic struct {
	Rel          attr.Set
	IsQuery      bool
	IsRaw        bool
	Buckets      int
	Groups       float64 // planner's g_R
	ModeledRate  float64 // collision rate the plan assumed
	MeasuredRate float64 // observed since the last stats reset
	FlowLength   float64 // observed records per bucket occupancy
	Probes       uint64
}

// Diagnostics is the operator's view of the running engine: per-table
// modeled-vs-measured statistics, plus the degradation accounting of
// every closed epoch and in total.
type Diagnostics struct {
	Tables []TableDiagnostic
	Epochs []Degradation // closed epochs' overload accounting, oldest first
	Total  Degradation   // cumulative, including the open epoch

	// Durability is the durable epoch store's ledger: which closed epochs
	// reached the store and which degraded to unpersisted.
	Durability Durability

	// Windows holds the ledger of every closed sliding window (empty
	// for tumbling workloads); RetainedPanes is the composer's live
	// pane count.
	Windows       []hfta.WindowLedger
	RetainedPanes int
}

// Diagnostics reports modeled-vs-measured statistics for every
// instantiated table of the active plan, and the engine's degradation
// history. In adaptive mode the measured table window is the current
// epoch (stats reset at each refresh).
func (e *Engine) Diagnostics() (*Diagnostics, error) {
	_ = e.flushStage()
	rates, err := cost.Rates(e.plan.Config, e.groups, e.plan.Alloc, e.opts.Params)
	if err != nil {
		return nil, err
	}
	stats := e.srt.TableStats()
	var out []TableDiagnostic
	for _, r := range e.plan.Config.Rels {
		st := stats[r]
		out = append(out, TableDiagnostic{
			Rel:          r,
			IsQuery:      e.plan.Config.IsQuery(r),
			IsRaw:        e.plan.Config.IsRaw(r),
			Buckets:      e.plan.Alloc[r],
			Groups:       e.groups[r],
			ModeledRate:  rates[r],
			MeasuredRate: st.CollisionRate(),
			FlowLength:   st.AvgFlowLength(),
			Probes:       st.Probes,
		})
	}
	total := e.cumDeg
	total.add(e.openDeg())
	d := &Diagnostics{
		Tables:     out,
		Epochs:     e.EpochDegradations(),
		Total:      total,
		Durability: e.Durability(),
	}
	if e.winComposer != nil {
		d.Windows = e.WindowLedgers()
		d.RetainedPanes = e.winComposer.PaneCount()
	}
	return d, nil
}

// EstimateGroups measures g_R for every relation of the queries' feeding
// graph from a sample of records — how experiments (and deployments with
// a warm-up window) obtain the planner's inputs.
func EstimateGroups(sample []stream.Record, queries []attr.Set) (feedgraph.GroupCounts, error) {
	g, err := feedgraph.New(queries)
	if err != nil {
		return nil, err
	}
	out := feedgraph.GroupCounts{}
	for _, r := range g.Relations() {
		out[r] = float64(gen.CountGroups(sample, r))
	}
	return out, nil
}
