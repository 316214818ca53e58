package hashtab

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/attr"
)

var relA = attr.MustParseSet("A")

// entry is one table entry as the tests inspect it: the group key, its
// aggregates, and how many records were folded into it while resident.
type entry struct {
	Key     []uint32
	Aggs    []int64
	Updates uint32
}

// probe folds one observation of key through ProbeInto and returns the
// entry it evicted, if any, with the update count the eviction added to
// the table's flow-length statistics.
func probe(tab *Table, key []uint32, deltas []int64) (evicted entry, collided bool) {
	var run VictimRun
	run.Reset()
	before := tab.Stats().EvictedUpdates
	if !tab.ProbeInto(key, deltas, &run) {
		return entry{}, false
	}
	return entry{Key: run.Keys, Aggs: run.Aggs, Updates: uint32(tab.Stats().EvictedUpdates - before)}, true
}

// slotEntry copies the entry resident in slot i.
func slotEntry(tab *Table, i int) entry {
	row := tab.aggs[i*tab.astride : (i+1)*tab.astride]
	return entry{
		Key:     slices.Clone(tab.keys[i*tab.arity : (i+1)*tab.arity]),
		Aggs:    slices.Clone(row[:len(tab.ops)]),
		Updates: clampUpdates(row[len(tab.ops)]),
	}
}

// lookup finds key's resident entry without modifying the table, searching
// only the hash group the key maps to: an entry stored in any other group
// is missing.
func lookup(tab *Table, key []uint32) (entry, bool) {
	h := tab.hash(key)
	base, tag := tab.group(h)
	grp := (*[GroupSlots]uint8)(tab.tags[base:])
	for mm := matchTags(grp, tag); mm != 0; mm &= mm - 1 {
		if e := slotEntry(tab, base+bits.TrailingZeros16(mm)); slices.Equal(e.Key, key) {
			return e, true
		}
	}
	return entry{}, false
}

// resident returns every resident entry in slot order, without modifying
// the table.
func resident(tab *Table) []entry {
	var out []entry
	for i := 0; i < tab.b; i++ {
		if tab.tags[i] != 0 {
			out = append(out, slotEntry(tab, i))
		}
	}
	return out
}

func counter(t *testing.T, rel string, b int) *Table {
	t.Helper()
	tab, err := New(attr.MustParseSet(rel), b, []AggOp{Sum}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 10, []AggOp{Sum}, 0); err == nil {
		t.Error("empty relation accepted")
	}
	if _, err := New(relA, 0, []AggOp{Sum}, 0); err == nil {
		t.Error("zero buckets accepted")
	}
	if _, err := New(relA, 10, nil, 0); err == nil {
		t.Error("no aggregates accepted")
	}
}

func TestEntrySizeAndSpace(t *testing.T) {
	// Paper: a bucket for relation A (1 attr + 1 counter) takes 8 bytes =
	// 2 units; ABCD takes 20 bytes = 5 units.
	a := counter(t, "A", 100)
	if a.EntrySize() != 2 || a.SpaceUnits() != 200 {
		t.Errorf("A: h = %d, space = %d", a.EntrySize(), a.SpaceUnits())
	}
	abcd := counter(t, "ABCD", 100)
	if abcd.EntrySize() != 5 || abcd.SpaceUnits() != 500 {
		t.Errorf("ABCD: h = %d, space = %d", abcd.EntrySize(), abcd.SpaceUnits())
	}
}

// TestPaperExample replays Section 2.2's worked example: stream
// 2, 24, 2, 2, 3, 17, 3, 4 through a 10-bucket table with hash = value
// mod 10. Our hash is not "mod 10", so we emulate the example's collision
// structure by checking semantics on a table large enough to avoid
// accidental collisions, then force the 24-vs-4 collision with a
// single-bucket table.
func TestPaperExample(t *testing.T) {
	tab := counter(t, "A", 1024)
	stream := []uint32{2, 24, 2, 2, 3, 17, 3}
	for _, v := range stream {
		if _, collided := probe(tab, []uint32{v}, []int64{1}); collided {
			t.Fatalf("unexpected collision for %d", v)
		}
	}
	// Status after 7 items (Figure 1): counts 2→3, 3→2, 17→1, 24→1.
	want := map[uint32]int64{2: 3, 3: 2, 17: 1, 24: 1}
	for v, cnt := range want {
		e, ok := lookup(tab, []uint32{v})
		if !ok || e.Aggs[0] != cnt {
			t.Errorf("group %d: got %+v, ok=%v; want count %d", v, e, ok, cnt)
		}
	}
	if tab.Len() != 4 {
		t.Errorf("Len = %d; want 4", tab.Len())
	}

	// Force the collision of the 8th item: group 4 arrives at a bucket
	// holding (24, 1). With b = 1 every probe shares the bucket.
	one := counter(t, "A", 1)
	probe(one, []uint32{24}, []int64{1})
	evicted, collided := probe(one, []uint32{4}, []int64{1})
	if !collided {
		t.Fatal("expected collision in single-bucket table")
	}
	if evicted.Key[0] != 24 || evicted.Aggs[0] != 1 {
		t.Errorf("evicted = %+v; want (24, 1)", evicted)
	}
	if e, ok := lookup(one, []uint32{4}); !ok || e.Aggs[0] != 1 {
		t.Errorf("bucket after eviction = %+v, %v; want (4, 1)", e, ok)
	}
}

func TestStatsAccounting(t *testing.T) {
	tab := counter(t, "A", 1)
	probe(tab, []uint32{1}, []int64{1}) // insert
	probe(tab, []uint32{1}, []int64{1}) // hit
	probe(tab, []uint32{2}, []int64{1}) // collision
	s := tab.Stats()
	if s.Probes != 3 || s.Inserts != 1 || s.Hits != 1 || s.Collisions != 1 {
		t.Errorf("stats = %+v", s)
	}
	if got := s.CollisionRate(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("CollisionRate = %v", got)
	}
	// The evicted entry for group 1 had 2 records folded in.
	if s.EvictedEntries != 1 || s.EvictedUpdates != 2 {
		t.Errorf("flow-length stats = %+v", s)
	}
	if got := s.AvgFlowLength(); got != 2 {
		t.Errorf("AvgFlowLength = %v", got)
	}
	tab.ResetStats()
	if tab.Stats().Probes != 0 {
		t.Error("ResetStats did not zero counters")
	}
}

func TestMinMaxAggregates(t *testing.T) {
	tab := MustNew(relA, 8, []AggOp{Sum, Min, Max}, 0)
	probe(tab, []uint32{7}, []int64{1, 100, 100})
	probe(tab, []uint32{7}, []int64{1, 42, 42})
	probe(tab, []uint32{7}, []int64{1, 77, 77})
	e, ok := lookup(tab, []uint32{7})
	if !ok {
		t.Fatal("group 7 missing")
	}
	if e.Aggs[0] != 3 || e.Aggs[1] != 42 || e.Aggs[2] != 100 {
		t.Errorf("aggs = %v; want [3 42 100]", e.Aggs)
	}
	if e.Updates != 3 {
		t.Errorf("updates = %d; want 3", e.Updates)
	}
}

func TestAggOpCombine(t *testing.T) {
	if Sum.Combine(2, 3) != 5 {
		t.Error("sum")
	}
	if Min.Combine(Min.Identity(), 9) != 9 || Min.Combine(4, 9) != 4 {
		t.Error("min")
	}
	if Max.Combine(Max.Identity(), -9) != -9 || Max.Combine(4, 9) != 9 {
		t.Error("max")
	}
	for _, op := range []AggOp{Sum, Min, Max} {
		if op.String() == "" {
			t.Error("empty op name")
		}
	}
}

func TestFlush(t *testing.T) {
	tab := counter(t, "AB", 64)
	keys := [][]uint32{{1, 2}, {3, 4}, {5, 6}}
	for _, k := range keys {
		probe(tab, k, []int64{1})
		probe(tab, k, []int64{1})
	}
	var out VictimRun
	if next := tab.DrainInto(&out, 0, tab.Buckets()); next != tab.Buckets() || out.Len() != 3 {
		t.Fatalf("DrainInto emptied %d entries, resumes at %d", out.Len(), next)
	}
	for i := 0; i < out.Len(); i++ {
		if out.Aggs[i] != 2 {
			t.Errorf("flushed entry %v count %d; want 2", out.Keys[2*i:2*i+2], out.Aggs[i])
		}
	}
	if tab.Len() != 0 {
		t.Error("table not empty after DrainInto")
	}
	if st := tab.Stats(); st.Flushes != 3 || st.EvictedUpdates != 6 || st.EvictedEntries != 3 {
		t.Errorf("stats after flush %+v", st)
	}
	// Flushing again empties nothing.
	if tab.DrainInto(&out, 0, tab.Buckets()); out.Len() != 0 {
		t.Errorf("second DrainInto emptied %d", out.Len())
	}
}

func TestClear(t *testing.T) {
	tab := counter(t, "A", 16)
	probe(tab, []uint32{1}, []int64{1})
	tab.Clear()
	if tab.Len() != 0 {
		t.Error("Clear left entries behind")
	}
	if _, ok := lookup(tab, []uint32{1}); ok {
		t.Error("entry survived Clear")
	}
	// Stats must be preserved by Clear.
	if tab.Stats().Probes != 1 {
		t.Error("Clear wiped stats")
	}
}

func TestProbePanicsOnArityMismatch(t *testing.T) {
	tab := counter(t, "AB", 4)
	assertPanics(t, func() { probe(tab, []uint32{1}, []int64{1}) })
	assertPanics(t, func() { probe(tab, []uint32{1, 2}, []int64{1, 1}) })
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

func TestSeedIndependence(t *testing.T) {
	// Two tables with different seeds should place at least one of many
	// keys in different buckets.
	t1 := MustNew(relA, 997, []AggOp{Sum}, 1)
	t2 := MustNew(relA, 997, []AggOp{Sum}, 2)
	diff := 0
	for v := uint32(0); v < 1000; v++ {
		if t1.Bucket([]uint32{v}) != t2.Bucket([]uint32{v}) {
			diff++
		}
	}
	if diff < 900 {
		t.Errorf("only %d/1000 keys placed differently under different seeds", diff)
	}
}

// TestHashUniformity checks the random-hash assumption underpinning the
// collision-rate model: hashing g sequential and g random keys into b
// buckets must produce an occupancy distribution close to binomial.
func TestHashUniformity(t *testing.T) {
	const (
		g = 30000
		b = 1000
	)
	for name, gen := range map[string]func(i int) []uint32{
		"sequential": func(i int) []uint32 { return []uint32{uint32(i)} },
		"strided":    func(i int) []uint32 { return []uint32{uint32(i * 256)} },
	} {
		tab := MustNew(relA, b, []AggOp{Sum}, 42)
		counts := make([]int, b)
		for i := 0; i < g; i++ {
			counts[tab.Bucket(gen(i))]++
		}
		// Chi-squared against uniform expectation g/b. With b-1 = 999
		// degrees of freedom, mean 999, sd ≈ 45; accept within ±6 sd.
		exp := float64(g) / float64(b)
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - exp
			chi2 += d * d / exp
		}
		if chi2 > 999+6*45 || chi2 < 999-6*45 {
			t.Errorf("%s keys: chi-squared = %.1f, outside uniform band", name, chi2)
		}
	}
}

// Property: the sum of counts across resident entries plus evicted entries
// always equals the number of probes (count conservation — no record is
// ever lost or double counted).
func TestCountConservationProperty(t *testing.T) {
	f := func(vals []uint16, bRaw uint8) bool {
		b := int(bRaw)%64 + 1
		tab := MustNew(relA, b, []AggOp{Sum}, uint64(bRaw))
		var evictedTotal int64
		for _, v := range vals {
			if e, collided := probe(tab, []uint32{uint32(v % 128)}, []int64{1}); collided {
				evictedTotal += e.Aggs[0]
			}
		}
		var residentTotal int64
		for _, e := range resident(tab) {
			residentTotal += e.Aggs[0]
		}
		return evictedTotal+residentTotal == int64(len(vals))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Updates on an entry equals its count for count(*) tables.
func TestUpdatesMatchCountProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		tab := MustNew(relA, 16, []AggOp{Sum}, 7)
		for _, v := range vals {
			probe(tab, []uint32{uint32(v)}, []int64{1})
		}
		for _, e := range resident(tab) {
			if int64(e.Updates) != e.Aggs[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEmpiricalCollisionRateOrder sanity-checks that collision rate grows
// with g/b, the core monotonicity the optimizer depends on.
func TestEmpiricalCollisionRateOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rate := func(g, b int) float64 {
		tab := MustNew(relA, b, []AggOp{Sum}, 99)
		for i := 0; i < 20000; i++ {
			v := uint32(rng.Intn(g))
			probe(tab, []uint32{v}, []int64{1})
		}
		return tab.Stats().CollisionRate()
	}
	r1 := rate(100, 1000)
	r2 := rate(1000, 1000)
	r3 := rate(5000, 1000)
	if !(r1 < r2 && r2 < r3) {
		t.Errorf("collision rates not increasing in g/b: %v %v %v", r1, r2, r3)
	}
}
