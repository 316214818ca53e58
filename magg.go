// Package magg is a Go implementation of "Multiple Aggregations Over Data
// Streams" (Zhang, Koudas, Ooi, Srivastava — SIGMOD 2005): a two-level
// (LFTA/HFTA) stream-aggregation engine, modeled after Gigascope, that
// evaluates many group-by aggregation queries over one high-speed stream
// by sharing work through phantoms — fine-granularity aggregates
// maintained only at the low level.
//
// # Quick start
//
//	sqls := []string{
//	    "select A, B, count(*) as cnt from R group by A, B, time/60",
//	    "select B, C, count(*) as cnt from R group by B, C, time/60",
//	    "select C, D, count(*) as cnt from R group by C, D, time/60",
//	}
//	queries := []magg.Relation{magg.MustRelation("AB"), magg.MustRelation("BC"), magg.MustRelation("CD")}
//	groups, _ := magg.EstimateGroups(sample, queries) // measure g_R on a sample
//	eng, _ := magg.NewEngine(sqls, groups, magg.Options{M: 40000})
//	_ = eng.Run(magg.NewSliceSource(records))
//	rows := eng.AllResults()
//
// The engine plans which phantoms to instantiate and how to split the M
// units of LFTA memory among the hash tables (algorithm GCSL of the
// paper), executes the stream with evict-on-collision semantics, and
// merges exact per-epoch answers at the HFTA. Optional adaptive mode
// re-plans between epochs as the stream's statistics drift.
//
// Lower-level building blocks — the collision-rate model, the cost model,
// space-allocation schemes and phantom-choosing algorithms — are exposed
// for direct use; the experiment harness reproducing the paper's tables
// and figures lives in cmd/maggbench.
package magg

import (
	"repro/internal/attr"
	"repro/internal/choose"
	"repro/internal/collision"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/epochstore"
	"repro/internal/feedgraph"
	"repro/internal/gen"
	"repro/internal/hfta"
	"repro/internal/lfta"
	"repro/internal/query"
	"repro/internal/spacealloc"
	"repro/internal/stream"
)

// Relation is a set of grouping attributes (A through Z); every group-by
// query and every phantom is identified by one.
type Relation = attr.Set

// ParseRelation parses a relation name such as "ABD".
func ParseRelation(name string) (Relation, error) { return attr.ParseSet(name) }

// MustRelation is ParseRelation that panics on error.
func MustRelation(name string) Relation { return attr.MustParseSet(name) }

// Record is one stream tuple: 4-byte attribute values plus a timestamp.
type Record = stream.Record

// Schema describes the stream relation's attributes.
type Schema = stream.Schema

// NewSchema builds a schema with n attributes named A, B, C, ...
func NewSchema(n int) (Schema, error) { return stream.NewSchema(n) }

// Source yields a stream of records.
type Source = stream.Source

// NewSliceSource replays an in-memory record batch.
func NewSliceSource(recs []Record) *stream.SliceSource { return stream.NewSliceSource(recs) }

// GroupCounts maps relations to their number of groups g_R, the planner's
// main statistical input.
type GroupCounts = feedgraph.GroupCounts

// EstimateGroups measures g_R for every relation of the queries' feeding
// graph from a sample of records.
func EstimateGroups(sample []Record, queries []Relation) (GroupCounts, error) {
	return core.EstimateGroups(sample, queries)
}

// Params are the cost-model parameters: probe cost c1, eviction cost c2,
// the collision-rate estimator, and per-relation flow lengths.
type Params = cost.Params

// DefaultParams is the paper's setting: c1 = 1, c2 = 50, precise-model
// rate curve.
func DefaultParams() Params { return cost.DefaultParams() }

// Engine is the assembled two-level system; see package documentation.
type Engine = core.Engine

// Options configure an Engine.
type Options = core.Options

// AdaptOptions control adaptive re-planning.
type AdaptOptions = core.AdaptOptions

// Planner chooses a configuration; see GCSLPlanner, GSPlanner,
// NoPhantomPlanner.
type Planner = core.Planner

// Planner implementations re-exported from the core engine.
var (
	GCSLPlanner      Planner = core.GCSLPlanner
	NoPhantomPlanner Planner = core.NoPhantomPlanner
)

// GSPlanner returns the greedy-by-increasing-space planner with the given
// φ (the paper's baseline algorithm).
func GSPlanner(phi float64) Planner { return core.GSPlanner(phi) }

// Peak-load repair methods for the end-of-epoch constraint.
const (
	PeakShrink = core.PeakShrink
	PeakShift  = core.PeakShift
)

// NewEngine builds an engine from GSQL query texts; the queries must
// differ only in their grouping attributes.
func NewEngine(sqls []string, groups GroupCounts, opts Options) (*Engine, error) {
	return core.New(sqls, groups, opts)
}

// NewEngineFromSample builds an engine whose group counts are measured
// from a warm-up sample of the stream.
func NewEngineFromSample(sqls []string, sample []Record, opts Options) (*Engine, error) {
	return core.NewFromSample(sqls, sample, opts)
}

// Row is one finalized query answer.
type Row = hfta.Row

// Ops are LFTA operation counts; Ops.ActualCost(c1, c2) is the paper's
// measured cost metric.
type Ops = lfta.Ops

// QuerySpec is a parsed GSQL query.
type QuerySpec = query.Spec

// ParseQuery parses one GSQL aggregation query.
func ParseQuery(sql string) (*QuerySpec, error) { return query.Parse(sql) }

// Config is an LFTA configuration: the instantiated relations arranged as
// a feeding forest. Its String method prints the paper's notation, e.g.
// "ABCD(AB BCD(BC BD CD))".
type Config = feedgraph.Config

// ParseConfig parses the paper's configuration notation. queries names
// the user queries; nil means the leaves.
func ParseConfig(notation string, queries []Relation) (*Config, error) {
	return feedgraph.ParseConfig(notation, queries)
}

// FeedingGraph is the graph of queries and candidate phantoms.
type FeedingGraph = feedgraph.Graph

// NewFeedingGraph builds the feeding graph of a query set.
func NewFeedingGraph(queries []Relation) (*FeedingGraph, error) {
	return feedgraph.New(queries)
}

// PlanResult is a chosen configuration with its allocation and modeled
// per-record cost.
type PlanResult = choose.Result

// Alloc assigns hash-table bucket counts to relations.
type Alloc = cost.Alloc

// Plan runs the paper's GCSL algorithm: it picks phantoms and splits the
// budget of m units among the hash tables.
func Plan(queries []Relation, groups GroupCounts, m int, p Params) (*PlanResult, error) {
	g, err := feedgraph.New(queries)
	if err != nil {
		return nil, err
	}
	return choose.GCSL(g, groups, m, p)
}

// PlanOptimal runs EPES, the exhaustive optimum (exponential; reference
// use only). steps is the ES granularity (0 = the paper's 1% of M).
func PlanOptimal(queries []Relation, groups GroupCounts, m int, p Params, steps int) (*PlanResult, error) {
	g, err := feedgraph.New(queries)
	if err != nil {
		return nil, err
	}
	return choose.EPES(g, groups, m, p, steps)
}

// AllocScheme names a space-allocation heuristic: SL, SR, PL, PR or ES.
type AllocScheme = spacealloc.Scheme

// The paper's space-allocation schemes.
const (
	AllocSL AllocScheme = spacealloc.SL
	AllocSR AllocScheme = spacealloc.SR
	AllocPL AllocScheme = spacealloc.PL
	AllocPR AllocScheme = spacealloc.PR
	AllocES AllocScheme = spacealloc.ES
)

// Allocate splits m units of space among a configuration's hash tables
// with the given scheme.
func Allocate(s AllocScheme, cfg *Config, groups GroupCounts, m int, p Params) (Alloc, error) {
	return spacealloc.Allocate(s, cfg, groups, m, p)
}

// PerRecordCost evaluates the paper's Equation 7 for a configuration and
// allocation: the modeled per-record intra-epoch cost.
func PerRecordCost(cfg *Config, groups GroupCounts, alloc Alloc, p Params) (float64, error) {
	return cost.PerRecord(cfg, groups, alloc, p)
}

// EndOfEpochCost evaluates Equation 8: the end-of-epoch update cost E_u,
// which the peak-load constraint bounds.
func EndOfEpochCost(cfg *Config, groups GroupCounts, alloc Alloc, p Params) (float64, error) {
	return cost.EndOfEpoch(cfg, groups, alloc, p)
}

// CollisionRate is the paper's precise collision-rate model (Equation 13,
// evaluated through the fitted g/b curve): the probability that a probe of
// a hash table with g groups and b buckets evicts the resident entry.
func CollisionRate(g, b float64) float64 { return collision.Rate(g, b) }

// Universe is a set of distinct group tuples records are drawn from.
type Universe = gen.Universe

// FlowTrace is a generated clustered packet trace.
type FlowTrace = gen.FlowTrace

// PaperTrace builds the seeded surrogate for the paper's real dataset:
// 860,000 records over 62 seconds with the published group cardinalities.
func PaperTrace(seed int64) (*Universe, *FlowTrace, error) { return gen.PaperTrace(seed) }

// ReadTraceFile reads a binary trace written by WriteTraceFile or
// cmd/magggen.
func ReadTraceFile(path string) (Schema, []Record, error) { return stream.ReadTraceFile(path) }

// WriteTraceFile writes records in the binary trace format.
func WriteTraceFile(path string, schema Schema, recs []Record) error {
	return stream.WriteTraceFile(path, schema, recs)
}

// OpenTraceSource opens a trace file for incremental (streaming) reads.
func OpenTraceSource(path string) (*stream.TraceSource, error) {
	return stream.OpenTraceSource(path)
}

// NewOrderedSource re-orders a slightly out-of-order stream within a
// bounded slack window, dropping and counting records that arrive too
// late; the engine's epoch clock requires ordered arrivals.
func NewOrderedSource(src Source, slack uint32) *stream.OrderedSource {
	return stream.NewOrderedSource(src, slack)
}

// ResultHandler receives finalized per-epoch rows together with the
// epoch's degradation accounting; installing one in Options.OnResults
// bounds the engine's memory. The rows are borrowed: they, and each row's
// Key and Aggs, are valid only during the call and must not be written.
// Copy what you keep; Engine.Results returns rows the caller owns.
type ResultHandler = core.ResultHandler

// WindowSpec is a sliding window in epochs: each window covers Size
// consecutive epochs and a new window starts every Slide epochs. Declare
// one in GSQL with "... time/10 window 4 slide 2"; every closed epoch
// becomes a pane the HFTA composes into overlapping windows. See
// docs/WINDOWS.md.
type WindowSpec = hfta.WindowSpec

// WindowRow is one group's answer for one closed window: the exact
// aggregates composed over the window's panes plus the sketch-aggregate
// estimates (count_distinct, median, percentile) in query order.
type WindowRow = hfta.WindowRow

// WindowLedger is the degradation accounting of one closed window: the
// summed pane ledgers, satisfying Offered == Processed + Dropped + Late.
type WindowLedger = hfta.WindowLedger

// WindowHandler streams closed windows out of the engine (one call per
// query per window); installing one in Options.OnWindow bounds the
// engine's memory on unbounded streams.
type WindowHandler = core.WindowHandler

// TableDiagnostic compares a table's modeled and measured behaviour; see
// Engine.Diagnostics.
type TableDiagnostic = core.TableDiagnostic

// Diagnostics is the operator's view of a running engine: per-table
// modeled-vs-measured statistics plus the degradation ledger.
type Diagnostics = core.Diagnostics

// Degradation is one epoch's overload ledger; the invariant
// Offered == Processed + Dropped + Late holds at every boundary. See
// docs/ROBUSTNESS.md.
type Degradation = core.Degradation

// ShedPolicy decides which records to sacrifice when the engine runs with
// a processing budget (Options.Budget).
type ShedPolicy = core.ShedPolicy

// DropTail is the default shedding policy: admit until the time unit's
// budget is spent, drop the rest.
type DropTail = core.DropTail

// NewUniformShed returns the EWMA-adaptive uniform-sampling shedding
// policy: under sustained overload it converges to dropping the
// unavoidable fraction uniformly across each epoch, keeping per-group
// aggregates an unbiased downscaling of the true ones.
func NewUniformShed(alpha float64, seed uint64) *core.UniformShed {
	return core.NewUniformShed(alpha, seed)
}

// ChaosSource wraps a Source with deterministic, seedable fault injection
// (timestamp regressions, duplicates, bursts, truncation) for robustness
// testing; see ChaosOptions.
type ChaosSource = stream.ChaosSource

// ChaosOptions select the faults a ChaosSource injects.
type ChaosOptions = stream.ChaosOptions

// NewChaosSource wraps src with the configured faults.
func NewChaosSource(src Source, opts ChaosOptions) *ChaosSource {
	return stream.NewChaosSource(src, opts)
}

// SinkFaults configure a FaultySink: every FailEvery-th delivery is lost
// (and accounted), every DelayEvery-th delayed.
type SinkFaults = lfta.SinkFaults

// NewFaultySink returns a fault-injecting wrapper for LFTA→HFTA sinks;
// lost deliveries are counted per relation so degradation stays testable
// as exact arithmetic.
func NewFaultySink(f SinkFaults) *lfta.FaultySink { return lfta.NewFaultySink(f) }

// NewSkipSource discards the first n records of a source — the resume
// path for replaying a stream from a checkpoint's recorded position
// (Engine.RestoreCheckpointFile returns n).
func NewSkipSource(src Source, n uint64) *stream.SkipSource {
	return stream.NewSkipSource(src, n)
}

// ErrBadCheckpoint reports a malformed or workload-mismatched checkpoint
// on Engine.Restore.
var ErrBadCheckpoint = core.ErrBadCheckpoint

// EpochStore is the durable, append-only, crash-safe store for finalized
// epochs. Attach one to an engine via Options.Store: every closed epoch's
// answers are persisted asynchronously (never blocking ingest), and after
// a crash Engine.RestoreCheckpointFile + Engine.ReplayStore resume with
// byte-identical answers for every persisted epoch. See docs/ROBUSTNESS.md.
type EpochStore = epochstore.Store

// EpochStoreOptions configure OpenEpochStore.
type EpochStoreOptions = epochstore.Options

// EpochStoreRecord is one persisted (epoch, query) result set with its
// epoch's degradation ledger.
type EpochStoreRecord = epochstore.Record

// EpochStoreRecovery describes what recovery repaired while opening a
// store (torn tails truncated, segments dropped, manifest rebuilt).
type EpochStoreRecovery = epochstore.Recovery

// OpenEpochStore opens (or creates) a durable epoch store in dir,
// running crash recovery: torn tails are truncated to the last intact
// record and the manifest is rebuilt if damaged. The handle is safe for
// one writer (the engine's persister) plus concurrent readers.
func OpenEpochStore(dir string, opts EpochStoreOptions) (*EpochStore, error) {
	return epochstore.Open(dir, opts)
}

// Durability is the engine's durable-store accounting: how many closed
// epochs reached the store, and which degraded to unpersisted.
type Durability = core.Durability

// EncodePlan serializes a plan (configuration + allocation + modeled
// cost) as JSON, the form maggopt -json prints.
func EncodePlan(r *PlanResult) ([]byte, error) { return choose.EncodePlan(r) }
