package lfta

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/cost"
	"repro/internal/feedgraph"
	"repro/internal/gen"
	"repro/internal/hashtab"
	"repro/internal/selvec"
	"repro/internal/stream"
)

// refCascade is the reference model of the cascade: the depth-first form
// the paper describes. Each record probes the raw tables one key at a
// time through ProbeInto; a victim feeds each child table in turn (each
// child's own victims recursing before the next child is fed) and then
// transfers if its relation is a query; the epoch flush drains each
// table, parents first, in slot order, and feeds its entries on the same
// way one at a time. It drives the compiled nodes of its own Runtime
// (built by New with the runtime's arguments, so its tables hash
// identically) and keeps its own op ledger and transfer log.
type refCascade struct {
	rt  *Runtime
	ops Ops
	log transfers
}

// transfers is every HFTA transfer per relation, in delivery order.
type transfers struct {
	keys map[attr.Set][]uint32
	aggs map[attr.Set][]int64
}

func (l *transfers) add(rel attr.Set, keys []uint32, aggs []int64) {
	if l.keys == nil {
		l.keys, l.aggs = map[attr.Set][]uint32{}, map[attr.Set][]int64{}
	}
	l.keys[rel] = append(l.keys[rel], keys...)
	l.aggs[rel] = append(l.aggs[rel], aggs...)
}

func (m *refCascade) process(rec stream.Record) {
	m.ops.Records++
	deltas := make([]int64, len(m.rt.aggs))
	for i, a := range m.rt.aggs {
		deltas[i] = 1
		if a.Input >= 0 {
			deltas[i] = int64(rec.Attrs[a.Input])
		}
	}
	for _, ni := range m.rt.rawIdx {
		m.feed(ni, m.rt.nodes[ni].rel.Project(rec.Attrs, nil), deltas)
	}
}

func (m *refCascade) feed(ni int, key []uint32, deltas []int64) {
	m.ops.Probes++
	tab := m.rt.nodes[ni].tab
	var victim hashtab.VictimRun
	victim.Reset()
	if tab.ProbeInto(key, deltas, &victim) {
		m.emit(ni, victim.Keys, victim.Aggs)
	}
}

func (m *refCascade) emit(ni int, key []uint32, aggs []int64) {
	nd := &m.rt.nodes[ni]
	for _, edge := range nd.children {
		ck := make([]uint32, len(edge.plan))
		for i, p := range edge.plan {
			ck[i] = key[p]
		}
		m.feed(edge.node, ck, aggs)
	}
	if nd.isQuery {
		m.ops.Transfers++
		m.log.add(nd.rel, key, aggs)
	}
}

// flushEpoch drains and cascades every table, and holds each drain to
// the flush bookkeeping: Flushes and EvictedEntries rise by exactly the
// entries drained, and once a table is empty every update it ever took
// has left it (each probe adds one update to one entry), so its
// EvictedUpdates equals its Probes.
func (m *refCascade) flushEpoch(t *testing.T) {
	t.Helper()
	var entries hashtab.VictimRun
	for _, ni := range m.rt.flush {
		tab := m.rt.nodes[ni].tab
		before := tab.Stats()
		tab.DrainInto(&entries, 0, tab.Buckets())
		st, n := tab.Stats(), uint64(entries.Len())
		if tab.Len() != 0 || st.Flushes != before.Flushes+n || st.EvictedEntries != before.EvictedEntries+n || st.EvictedUpdates != st.Probes {
			t.Fatalf("reference flush of %v drained %d entries, leaving %d: stats %+v -> %+v",
				tab.Rel(), n, tab.Len(), before, st)
		}
		a, na := tab.Arity(), tab.NumAggs()
		for i := 0; i < entries.Len(); i++ {
			m.emit(ni, entries.Keys[i*a:(i+1)*a], entries.Aggs[i*na:(i+1)*na])
		}
	}
}

// checkAgainstReference fails unless rt matches the model in its op
// ledger and every table's statistics and resident count; once rt's
// transfer runs are sealed (after FlushEpoch), also in every relation's
// transfer sequence entry for entry. The flush drains every table in slot
// order, so the sealed sequences also hold the tables' contents to the
// model's slot for slot.
func checkAgainstReference(t *testing.T, what string, rt *Runtime, log *transfers, m *refCascade, sealed bool) {
	t.Helper()
	if rt.Ops() != m.ops {
		t.Fatalf("%s: ops diverge:\ncascade   %+v\nreference %+v", what, rt.Ops(), m.ops)
	}
	for i := range rt.nodes {
		got, ref := rt.nodes[i].tab, m.rt.nodes[i].tab
		rel := rt.nodes[i].rel
		if got.Stats() != ref.Stats() {
			t.Fatalf("%s: table %v stats diverge:\ncascade   %+v\nreference %+v", what, rel, got.Stats(), ref.Stats())
		}
		if got.Len() != ref.Len() {
			t.Fatalf("%s: table %v holds %d entries, reference %d", what, rel, got.Len(), ref.Len())
		}
		if !sealed {
			continue
		}
		if !slices.Equal(log.keys[rel], m.log.keys[rel]) || !slices.Equal(log.aggs[rel], m.log.aggs[rel]) {
			t.Fatalf("%s: relation %v transfer sequence diverges from the reference", what, rel)
		}
	}
}

// TestCascadeMatchesReference holds the run cascade to the depth-first
// reference model, whichever way records enter: Process one at a time,
// ProcessColumns over whole batches, and ProcessColumnsSel over sparse
// selections, mixed at random batch by batch, with FlushEpoch closing
// every epoch. Ops, per-table statistics and resident counts, and each
// relation's transfer sequence must match after every epoch. Shapes cover
// tiny tables (down to a single partial probe group), a configuration
// with two raw relations and three cascade levels under one of them, a
// four-level single-raw cascade whose root feeds a deep child before a
// shallow one, and the {Sum} and {Sum,Min,Max} aggregate lists; both
// tag-scan kernels run.
func TestCascadeMatchesReference(t *testing.T) {
	defer hashtab.SetSIMD(hashtab.SIMDEnabled())
	kernels := []bool{false}
	if hashtab.SIMDAvailable() {
		kernels = append(kernels, true)
	}
	sum := []AggSpec{{Op: hashtab.Sum, Input: 2}}
	sumMinMax := []AggSpec{
		{Op: hashtab.Sum, Input: -1},
		{Op: hashtab.Min, Input: 1},
		{Op: hashtab.Max, Input: 3},
	}
	shapes := []struct {
		spec    string
		queries string
		aggs    []AggSpec
	}{
		{"ABCD(AB BC CD)", "AB BC CD", CountStar},
		{"ABC(AB(A) BC) CD(D)", "AB A BC D", sum},
		{"ABC(AB(A) BC) CD(D)", "AB A BC D", sumMinMax},
		{"ABCD(ABC(AB(A)) CD)", "AB A CD", sumMinMax},
		{"ABCD(ABC(AB(A)) CD)", "AB A CD", CountStar},
	}
	for _, simd := range kernels {
		hashtab.SetSIMD(simd)
		for si, sh := range shapes {
			var queries []attr.Set
			for _, q := range strings.Fields(sh.queries) {
				queries = append(queries, attr.MustParseSet(q))
			}
			cfg, err := feedgraph.ParseConfig(sh.spec, queries)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(8100 + int64(si)))
			u, err := gen.UniformUniverse(rng, stream.MustSchema(4), 100+rng.Intn(600), 30)
			if err != nil {
				t.Fatal(err)
			}
			recs := gen.Uniform(rng, u, 6000+rng.Intn(4000), 60)
			// Tiny tables for heavy eviction traffic, and tables large
			// enough that the epoch flush drains them in several chunks.
			alloc := cost.Alloc{}
			for _, r := range cfg.Rels {
				alloc[r] = 1 + rng.Intn(40)
				if rng.Intn(2) == 0 {
					alloc[r] = 2*drainChunk + rng.Intn(300)
				}
			}
			seed := uint64(8200 + si)
			rt, err := New(cfg, alloc, sh.aggs, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			var log transfers
			rt.SetRunSink(func(rel attr.Set, _ uint32, keys []uint32, aggs []int64) {
				log.add(rel, keys, aggs)
			}, 1+rng.Intn(40))
			refRT, err := New(cfg, alloc, sh.aggs, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			m := &refCascade{rt: refRT}

			name := "kernel=" + hashtab.KernelName() + " shape " + sh.spec
			const width, epochs = 4, 6
			per := len(recs) / epochs
			var cb stream.ColumnBatch
			var sel selvec.Bitmap
			for epoch := uint32(0); epoch < epochs; epoch++ {
				batch := recs[int(epoch)*per : int(epoch+1)*per]
				for len(batch) > 0 {
					n := min(len(batch), 1+rng.Intn(300))
					run := batch[:n]
					batch = batch[n:]
					mode := rng.Intn(3)
					if mode == 0 {
						for _, rec := range run {
							rt.Process(rec, epoch)
							m.process(rec)
						}
						continue
					}
					cb.Reset(width)
					for _, rec := range run {
						cb.Append(rec.Attrs, rec.Time)
					}
					if mode == 1 {
						rt.ProcessColumns(cb.Cols, epoch)
						for _, rec := range run {
							m.process(rec)
						}
						continue
					}
					sel = selvec.Grow(sel, n)
					sel.Clear(n)
					pct := rng.Intn(100)
					for i, rec := range run {
						if rng.Intn(100) < pct {
							sel.Set(i)
							m.process(rec)
						}
					}
					rt.ProcessColumnsSel(cb.Cols, n, sel, epoch)
				}
				checkAgainstReference(t, name+" before flush", rt, &log, m, false)
				rt.FlushEpoch()
				m.flushEpoch(t)
				checkAgainstReference(t, name+" after flush", rt, &log, m, true)
			}
		}
	}
}
