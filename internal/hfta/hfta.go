// Package hfta implements the high-level query node: it merges the
// partial aggregates evicted from the LFTA into exact per-epoch query
// answers, and provides a reference (oracle) aggregator used to verify
// that the phantom-sharing LFTA loses no information.
//
// Within an epoch the HFTA may see several partials for the same group
// (one per eviction plus the end-of-epoch flush); they combine under the
// aggregate operations. Since the answers leave sorted by key, the HFTA
// does not hash them as they arrive: each (query, epoch) keeps a log of
// its partials in arrival order (see store.go), a merge only appends to
// it, and the read-out sorts the log once and folds equal keys in the
// same pass (readout.go) — aggregation inside the sort.
package hfta

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/attr"
	"repro/internal/lfta"
	"repro/internal/stream"
)

// Row is one finalized query answer: the group of a query relation in an
// epoch with its aggregate values.
type Row struct {
	Rel   attr.Set
	Epoch uint32
	Key   []uint32
	Aggs  []int64
}

// Aggregator accumulates evictions per (query, epoch, group). All methods
// are safe for concurrent use.
type Aggregator struct {
	aggs  []lfta.AggSpec
	state map[attr.Set]*relState

	scratchMu sync.Mutex
	scratch   []*readScratch // idle read-out scratch (see readout.go)
}

// New builds an aggregator for the given query relations and aggregates.
func New(queries []attr.Set, aggs []lfta.AggSpec) (*Aggregator, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("hfta: need at least one query")
	}
	if len(aggs) == 0 {
		return nil, fmt.Errorf("hfta: need at least one aggregate")
	}
	a := &Aggregator{
		aggs:  append([]lfta.AggSpec(nil), aggs...),
		state: make(map[attr.Set]*relState, len(queries)),
	}
	for _, q := range queries {
		if q.IsEmpty() {
			return nil, fmt.Errorf("hfta: empty query relation")
		}
		a.state[q] = &relState{arity: q.Size(), logs: make(map[uint32]*epochLog)}
	}
	return a, nil
}

// AllRows returns every finalized row across queries and epochs, sorted
// by (relation, epoch, key).
func (a *Aggregator) AllRows() []Row {
	var rels []attr.Set
	for r := range a.state {
		rels = append(rels, r)
	}
	attr.SortSets(rels)
	var out []Row
	for _, r := range rels {
		for _, e := range a.Epochs(r) {
			out = append(out, a.Rows(r, e)...)
		}
	}
	return out
}

// Epochs returns the epochs with state for a query, ascending.
func (a *Aggregator) Epochs(rel attr.Set) []uint32 {
	rs := a.state[rel]
	if rs == nil {
		return nil
	}
	var out []uint32
	rs.mu.Lock()
	for e := range rs.logs {
		out = append(out, e)
	}
	rs.mu.Unlock()
	slices.Sort(out)
	return out
}

// Drop releases the state of one epoch across all queries. The epoch's
// logs are emptied and pooled for reuse by later epochs (see relState).
func (a *Aggregator) Drop(epoch uint32) {
	for _, rs := range a.state {
		rs.mu.Lock()
		rs.release(epoch)
		rs.mu.Unlock()
	}
}

// Reset drops all epochs of all queries, keeping the allocated logs
// (pooled) for reuse: the aggregator behaves as freshly constructed but a
// subsequent same-shaped workload allocates almost nothing. Not safe to
// call concurrently with merges.
func (a *Aggregator) Reset() {
	for _, rs := range a.state {
		rs.mu.Lock()
		for e := range rs.logs {
			rs.release(e)
		}
		rs.mu.Unlock()
	}
}

// GroupCount returns the number of distinct groups a query produced in an
// epoch — the measured g_R signal the adaptive engine feeds back into the
// optimizer. It folds the epoch's log, so a later Rows copies it.
func (a *Aggregator) GroupCount(rel attr.Set, epoch uint32) int {
	l, _ := a.folded(rel, epoch)
	if l == nil {
		return 0
	}
	defer l.mu.Unlock()
	return l.folded
}

// Reference computes exact query answers directly from the records (no
// LFTA, no hash tables): the oracle against which the two-level pipeline
// is verified. epochLen 0 means a single unbounded epoch.
func Reference(recs []stream.Record, queries []attr.Set, aggs []lfta.AggSpec, epochLen uint32) []Row {
	agg, err := New(queries, aggs)
	if err != nil {
		return nil
	}
	e := stream.Epoch{Length: epochLen}
	deltas := make([]int64, len(aggs))
	var keyBuf []uint32
	for i := range recs {
		rec := &recs[i]
		for j, spec := range aggs {
			if spec.Input < 0 {
				deltas[j] = 1
			} else {
				deltas[j] = int64(rec.Attrs[spec.Input])
			}
		}
		for _, q := range queries {
			keyBuf = q.Project(rec.Attrs, keyBuf)
			agg.MergeRun(q, e.Of(rec.Time), keyBuf, deltas)
		}
	}
	return agg.AllRows()
}

// Equal reports whether two row sets are identical (same order, groups,
// and aggregate values); rows from AllRows and Reference compare directly.
func Equal(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Rel != b[i].Rel || a[i].Epoch != b[i].Epoch {
			return false
		}
		if len(a[i].Key) != len(b[i].Key) || len(a[i].Aggs) != len(b[i].Aggs) {
			return false
		}
		for j := range a[i].Key {
			if a[i].Key[j] != b[i].Key[j] {
				return false
			}
		}
		for j := range a[i].Aggs {
			if a[i].Aggs[j] != b[i].Aggs[j] {
				return false
			}
		}
	}
	return true
}

// HavingCountAtLeast filters rows to those whose aggregate at index aggIdx
// reaches min — the paper's introductory "report ... provided this number
// of packets is more than 100" query shape.
func HavingCountAtLeast(rows []Row, aggIdx int, min int64) []Row {
	out := rows[:0:0]
	for _, r := range rows {
		if aggIdx < len(r.Aggs) && r.Aggs[aggIdx] >= min {
			out = append(out, r)
		}
	}
	return out
}
