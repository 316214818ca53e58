package hashtab

import (
	"math/rand"
	"testing"

	"repro/internal/attr"
)

// Miss-heavy large-table shape: the probe stream draws ~4M distinct
// groups that fight for 2M buckets, so in steady state most probes
// evict a resident victim — the regime where the paper's collision
// model lives and where memory-level parallelism matters (the working
// set is tens of MB, far beyond L2).
const (
	benchBuckets = 1 << 21
	benchStream  = 1 << 22
	benchRun     = 512
)

func newBenchFixture(tb testing.TB) (*Table, []uint32) {
	tab := MustNew(attr.MustParseSet("AB"), benchBuckets, []AggOp{Sum}, 11)
	rng := rand.New(rand.NewSource(17))
	keys := make([]uint32, 2*benchStream)
	for i := 0; i < benchStream; i++ {
		g := rng.Intn(benchStream << 1)
		keys[2*i] = uint32(g)
		keys[2*i+1] = uint32(g >> 11)
	}
	return tab, keys
}

func BenchmarkProbeScalarLarge(b *testing.B) {
	tab, keys := newBenchFixture(b)
	one := []int64{1}
	var victims VictimRun
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := (i % benchStream) * 2
		victims.Reset()
		tab.ProbeInto(keys[o:o+2], one, &victims)
	}
}

func BenchmarkProbeColumnsLarge(b *testing.B) {
	tab, keys := newBenchFixture(b)
	cols := columns(keys, 2)
	sel := fullSel(benchRun)
	deltas := make([]int64, benchRun)
	for i := range deltas {
		deltas[i] = 1
	}
	kc := make([][]uint32, 2)
	var out VictimRun
	b.ReportAllocs()
	b.ResetTimer()
	nruns := benchStream / benchRun
	for done := 0; done < b.N; {
		o := ((done / benchRun) % nruns) * benchRun
		n := benchRun
		if b.N-done < n {
			n = b.N - done
			sel = fullSel(n)
		}
		kc[0], kc[1] = cols[0][o:o+n], cols[1][o:o+n]
		tab.ProbeColumnsSelInto(kc, deltas[:n], n, sel, &out)
		done += n
	}
}
