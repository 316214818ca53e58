package hashtab

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/attr"
)

// buildRun generates n random keys (flat, n×arity) with enough repetition
// that runs contain duplicate keys — the case the commit pass must
// resolve against fresh bucket state — plus matching per-probe deltas.
func buildRun(rng *rand.Rand, n, arity, naggs, universe int) ([]uint32, []int64) {
	keys := make([]uint32, 0, n*arity)
	deltas := make([]int64, 0, n*naggs)
	for i := 0; i < n; i++ {
		g := rng.Intn(universe)
		for j := 0; j < arity; j++ {
			keys = append(keys, uint32(g*31+j*7))
		}
		for j := 0; j < naggs; j++ {
			deltas = append(deltas, int64(rng.Intn(100)-20))
		}
	}
	return keys, deltas
}

// columns splits a flat record-major key run into one column per key
// word.
func columns(keys []uint32, arity int) [][]uint32 {
	cols := make([][]uint32, arity)
	for i, k := range keys {
		cols[i%arity] = append(cols[i%arity], k)
	}
	return cols
}

// fullSel returns the saturated selection over n lanes.
func fullSel(n int) []uint64 {
	sel := make([]uint64, selWords(n))
	for i := 0; i < n; i++ {
		sel[i>>6] |= 1 << (uint(i) & 63)
	}
	return sel
}

// reference returns a table whose probes all take the generic commit
// (fastSum2 cleared): the model that commitSum2, through either probe
// form, is held to.
func reference(rel attr.Set, b int, ops []AggOp, seed uint64) *Table {
	t := MustNew(rel, b, ops, seed)
	t.fastSum2 = false
	return t
}

// probeLanes calls ProbeInto on each selected lane of a column run, in
// ascending lane order, collecting the victims in out (reset first): the
// model of one ProbeColumnsSelInto call.
func probeLanes(t *Table, cols [][]uint32, deltas []int64, n int, sel []uint64, out *VictimRun) {
	a, na := t.Arity(), t.NumAggs()
	out.Reset()
	key := make([]uint32, a)
	k := 0
	for i := 0; i < n; i++ {
		if sel[i>>6]&(1<<(uint(i)&63)) == 0 {
			continue
		}
		for j := range key {
			key[j] = cols[j][i]
		}
		t.ProbeInto(key, deltas[k*na:(k+1)*na], out)
		k++
	}
}

// sameRun reports whether two victim runs hold the same entries in the
// same order.
func sameRun(a, b *VictimRun) bool {
	return a.Len() == b.Len() && slices.Equal(a.Keys, b.Keys) && slices.Equal(a.Aggs, b.Aggs)
}

// checkSameTable fails unless got matches want in statistics, live
// count, and storage slot for slot.
func checkSameTable(t *testing.T, got, want *Table) {
	t.Helper()
	if got.Stats() != want.Stats() {
		t.Fatalf("stats diverge:\ngot  %+v\nwant %+v", got.Stats(), want.Stats())
	}
	if got.Len() != want.Len() {
		t.Fatalf("live count diverges: %d vs %d", got.Len(), want.Len())
	}
	if !slices.Equal(got.tags, want.tags) || !slices.Equal(got.keys, want.keys) || !slices.Equal(got.aggs, want.aggs) {
		t.Fatal("table contents diverge")
	}
}

// TestProbeBatchMatchesScalar holds a record run through the columnar
// kernel (ProbeColumnsSelInto, saturated selection) and the same run
// through ProbeInto, lane by lane, to a reference table forced onto the
// generic commit: same victims in the same order, same statistics, same
// final table contents — across arities, aggregate shapes (the sum-only
// arity-2 shapes commit through commitSum2 in both probe forms), table
// sizes (spanning the prefetch gate), and run lengths on both sides of a
// selection word.
func TestProbeBatchMatchesScalar(t *testing.T) {
	cases := []struct {
		name     string
		arity    int
		ops      []AggOp
		buckets  int
		universe int
	}{
		{"count-small", 2, []AggOp{Sum}, 512, 900},
		{"count-large", 2, []AggOp{Sum}, 1 << 16, 90000},
		{"multi-agg", 3, []AggOp{Sum, Min, Max}, 4096, 6000},
		{"arity1-dense-dups", 1, []AggOp{Sum}, 257, 40},
		{"arity4", 4, []AggOp{Sum, Max}, 1 << 15, 50000},
		{"arity4-count", 4, []AggOp{Sum}, 1000, 3000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rel := attr.MustParseSet("ABCD"[:tc.arity])
			rng := rand.New(rand.NewSource(int64(tc.buckets)))
			ref := reference(rel, tc.buckets, tc.ops, 42)
			scalar := MustNew(rel, tc.buckets, tc.ops, 42)
			batched := MustNew(rel, tc.buckets, tc.ops, 42)
			var refOut, scOut, out VictimRun
			for _, n := range []int{1, 63, 64, 65, 200, 512, 1000} {
				keys, deltas := buildRun(rng, n, tc.arity, len(tc.ops), tc.universe)
				cols, sel := columns(keys, tc.arity), fullSel(n)
				probeLanes(ref, cols, deltas, n, sel, &refOut)
				probeLanes(scalar, cols, deltas, n, sel, &scOut)
				batched.ProbeColumnsSelInto(cols, deltas, n, sel, &out)
				if !sameRun(&scOut, &refOut) {
					t.Fatalf("n=%d: ProbeInto victims diverge from the generic commit", n)
				}
				if !sameRun(&out, &refOut) {
					t.Fatalf("n=%d: %d columnar victims diverge from %d of the generic commit", n, out.Len(), refOut.Len())
				}
			}
			checkSameTable(t, scalar, ref)
			checkSameTable(t, batched, ref)
		})
	}
}

// TestProbeBatchDuplicateKeysInChunk pins the fresh-tag-read requirement
// directly: a columnar run that is one key repeated must produce one
// insert and n-1 hits, never a self-collision from stale setup-pass
// state.
func TestProbeBatchDuplicateKeysInChunk(t *testing.T) {
	tab := MustNew(attr.MustParseSet("AB"), 1024, []AggOp{Sum}, 7)
	cols := [][]uint32{make([]uint32, 200), make([]uint32, 200)}
	deltas := make([]int64, 200)
	for i := range deltas {
		cols[0][i], cols[1][i] = 11, 22
		deltas[i] = 1
	}
	var out VictimRun
	tab.ProbeColumnsSelInto(cols, deltas, 200, fullSel(200), &out)
	if out.Len() != 0 {
		t.Fatalf("%d victims from a single-key run", out.Len())
	}
	st := tab.Stats()
	if st.Inserts != 1 || st.Hits != 199 || st.Collisions != 0 {
		t.Fatalf("stats %+v, want 1 insert / 199 hits / 0 collisions", st)
	}
	e, ok := lookup(tab, []uint32{11, 22})
	if !ok || e.Aggs[0] != 200 {
		t.Fatalf("resident entry %+v ok=%v, want sum 200", e, ok)
	}
}

// TestProbeBatchZeroAllocSteadyState proves both probe forms allocate
// nothing once the columnar kernel's setup scratch and the caller's
// VictimRun have warmed: ProbeColumnsSelInto on a run, and ProbeInto key
// by key on sum-only tables of arity 1, 2 (commitSum2) and 4 and on a
// multi-aggregate table.
func TestProbeBatchZeroAllocSteadyState(t *testing.T) {
	tab := MustNew(attr.MustParseSet("AB"), 4096, []AggOp{Sum}, 9)
	rng := rand.New(rand.NewSource(5))
	keys, deltas := buildRun(rng, 512, 2, 1, 9000)
	cols, sel := columns(keys, 2), fullSel(512)
	var out VictimRun
	tab.ProbeColumnsSelInto(cols, deltas, 512, sel, &out) // warm scratch + victim capacity
	avg := testing.AllocsPerRun(50, func() {
		tab.ProbeColumnsSelInto(cols, deltas, 512, sel, &out)
	})
	if avg != 0 {
		t.Fatalf("ProbeColumnsSelInto allocates %.1f per run in steady state", avg)
	}

	for _, tc := range []struct {
		name  string
		arity int
		ops   []AggOp
	}{
		{"sum/arity1", 1, []AggOp{Sum}},
		{"sum/arity2", 2, []AggOp{Sum}},
		{"sum/arity4", 4, []AggOp{Sum}},
		{"multi-agg", 3, []AggOp{Sum, Min, Max}},
	} {
		t.Run("ProbeInto/"+tc.name, func(t *testing.T) {
			// A small table under a wide universe, so steady state evicts.
			tab := MustNew(attr.MustParseSet("ABCD"[:tc.arity]), 256, tc.ops, 9)
			na := len(tc.ops)
			keys, deltas := buildRun(rng, 512, tc.arity, na, 9000)
			var out VictimRun
			probeAll := func() {
				for i := 0; i < 512; i++ {
					out.Reset()
					tab.ProbeInto(keys[i*tc.arity:(i+1)*tc.arity], deltas[i*na:(i+1)*na], &out)
				}
			}
			probeAll() // warm victim capacity
			if avg := testing.AllocsPerRun(20, probeAll); avg != 0 {
				t.Fatalf("ProbeInto allocates %.1f per 512 probes in steady state", avg)
			}
			if tab.Stats().Collisions == 0 {
				t.Fatal("no probe evicted; the victim path went unmeasured")
			}
		})
	}
}

// TestTagAliasDistinctKeys pins the 1/128 fingerprint-alias case: keys
// that are distinct but share both their group and their 8-bit tag. The
// tag scan reports every aliased lane as a probable hit, and only the
// key compare may separate them — each aliased key must get its own
// slot, re-probes must fold into the right entry, and ProbeInto, the
// columnar kernel and the generic commit must agree bit-for-bit. Runs
// under both tag-scan kernels.
func TestTagAliasDistinctKeys(t *testing.T) {
	defer SetSIMD(SIMDEnabled())
	for _, simd := range []bool{false, true} {
		if !SetSIMD(simd) && simd {
			continue // no vector kernel on this CPU
		}
		t.Run("kernel="+KernelName(), func(t *testing.T) {
			rel := attr.MustParseSet("AB")
			probe := MustNew(rel, 1024, []AggOp{Sum}, 42)

			// Mine keys sharing (group, tag) under the table's seed.
			type gt struct {
				base int
				tag  uint8
			}
			aliases := map[gt][][]uint32{}
			var hit gt
			for k := uint32(0); ; k++ {
				key := []uint32{k, k * 3}
				base, tag := probe.group(probe.hash(key))
				id := gt{base, tag}
				aliases[id] = append(aliases[id], key)
				if len(aliases[id]) == 4 {
					hit = id
					break
				}
			}
			keys := aliases[hit]

			ref := reference(rel, 1024, []AggOp{Sum}, 42)
			scalar := MustNew(rel, 1024, []AggOp{Sum}, 42)
			batched := MustNew(rel, 1024, []AggOp{Sum}, 42)

			// Interleave the aliases twice over: insert each, then re-probe
			// each, so hits must discriminate among four same-tag lanes.
			var flat []uint32
			var deltas []int64
			for round := 0; round < 2; round++ {
				for i, key := range keys {
					flat = append(flat, key...)
					deltas = append(deltas, int64(1+i+10*round))
				}
			}
			n := len(deltas)
			cols, sel := columns(flat, 2), fullSel(n)
			var refOut, scOut, out VictimRun
			probeLanes(ref, cols, deltas, n, sel, &refOut)
			probeLanes(scalar, cols, deltas, n, sel, &scOut)
			batched.ProbeColumnsSelInto(cols, deltas, n, sel, &out)
			for _, run := range []*VictimRun{&refOut, &scOut, &out} {
				if run.Len() != 0 {
					t.Fatalf("%d victims from a near-empty table", run.Len())
				}
			}

			for _, tab := range []*Table{ref, scalar, batched} {
				st := tab.Stats()
				if st.Inserts != uint64(len(keys)) || st.Hits != uint64(n-len(keys)) {
					t.Fatalf("stats %+v, want %d inserts / %d hits", st, len(keys), n-len(keys))
				}
				for i, key := range keys {
					e, ok := lookup(tab, key)
					if !ok {
						t.Fatalf("aliased key %v missing", key)
					}
					want := int64(1+i) + int64(11+i)
					if e.Aggs[0] != want {
						t.Fatalf("aliased key %v sum = %d, want %d", key, e.Aggs[0], want)
					}
					if e.Updates != 2 {
						t.Fatalf("aliased key %v updates = %d, want 2", key, e.Updates)
					}
				}
			}
			checkSameTable(t, scalar, ref)
			checkSameTable(t, batched, ref)
		})
	}
}

// TestDrainIntoChunked: draining a table a chunk at a time must empty
// the same entries, in the same slot order, with the same statistics as
// one drain of the whole table, and both must end at Buckets() with the
// table empty. A chunk that stops early resumes at the slot after its
// last entry.
func TestDrainIntoChunked(t *testing.T) {
	for _, ops := range [][]AggOp{{Sum}, {Sum, Min, Max}} {
		for _, chunk := range []int{1, 3, 64} {
			rng := rand.New(rand.NewSource(int64(90 + chunk)))
			rel := attr.MustParseSet("ABC")
			chunked := MustNew(rel, 300, ops, 4)
			whole := MustNew(rel, 300, ops, 4)
			keys, deltas := buildRun(rng, 2000, 3, len(ops), 400)
			cols, sel := columns(keys, 3), fullSel(2000)
			var out, all VictimRun
			chunked.ProbeColumnsSelInto(cols, deltas, 2000, sel, &out)
			whole.ProbeColumnsSelInto(cols, deltas, 2000, sel, &out)

			want := resident(whole)
			if next := whole.DrainInto(&all, 0, whole.Buckets()); next != whole.Buckets() {
				t.Fatalf("one-shot drain resumes at %d, want %d", next, whole.Buckets())
			}
			if all.Len() != len(want) {
				t.Fatalf("one-shot drain emptied %d entries, %d resident", all.Len(), len(want))
			}
			for i, e := range want {
				na := len(ops)
				if !slices.Equal(all.Keys[3*i:3*i+3], e.Key) || !slices.Equal(all.Aggs[na*i:na*i+na], e.Aggs) {
					t.Fatalf("one-shot drain entry %d is not slot-order entry %v", i, e)
				}
			}

			var keysOut []uint32
			var aggsOut []int64
			pos, drained := 0, 0
			for pos < chunked.Buckets() {
				next := chunked.DrainInto(&out, pos, chunk)
				if out.Len() > chunk {
					t.Fatalf("chunk of %d entries, max %d", out.Len(), chunk)
				}
				if next <= pos {
					t.Fatalf("drain did not advance: %d → %d", pos, next)
				}
				drained += out.Len()
				if next < chunked.Buckets() && chunked.Len() != len(want)-drained {
					t.Fatalf("live count %d after draining %d of %d", chunked.Len(), drained, len(want))
				}
				keysOut = append(keysOut, out.Keys...)
				aggsOut = append(aggsOut, out.Aggs...)
				pos = next
			}
			if pos != chunked.Buckets() {
				t.Fatalf("chunked drain resumes at %d, want %d", pos, chunked.Buckets())
			}
			if !slices.Equal(keysOut, all.Keys) || !slices.Equal(aggsOut, all.Aggs) {
				t.Fatalf("chunk %d: chunked drain diverges from one-shot drain", chunk)
			}
			cs, ws := chunked.Stats(), whole.Stats()
			if cs.Flushes != ws.Flushes || cs.EvictedUpdates != ws.EvictedUpdates || cs.EvictedEntries != ws.EvictedEntries {
				t.Fatalf("chunk %d: stats diverge:\nchunked  %+v\none-shot %+v", chunk, cs, ws)
			}
			if cs.Flushes != uint64(len(want)) {
				t.Fatalf("Flushes = %d, want %d", cs.Flushes, len(want))
			}
			for _, tab := range []*Table{chunked, whole} {
				if tab.Len() != 0 {
					t.Fatalf("%d entries left after a drain", tab.Len())
				}
				if left := resident(tab); len(left) > 0 {
					t.Fatalf("entry %v left after a drain", left[0].Key)
				}
			}
		}
	}
}
