// Package gen generates the workloads of the paper's experimental study:
// uniform random streams, Zipf-skewed streams, and clustered netflow-like
// packet traces.
//
// The paper's "real dataset" is a tcpdump capture of 860,000 TCP headers
// over 62 seconds with 2837 distinct (srcIP, dstIP, srcPort, dstPort)
// groups, strong flow clusteredness, and per-relation group counts between
// 552 and 2837. That capture is not distributable, so PaperTrace builds a
// seeded synthetic stand-in that reproduces exactly the statistics the
// optimization problem observes: the per-relation group counts, the record
// volume, the duration, and the flow-level clusteredness (packets of a
// flow share all four attributes and arrive near each other in time). See
// DESIGN.md §5 for the substitution argument.
package gen

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/attr"
	"repro/internal/stream"
)

// Universe is a set of distinct full-width group tuples; records are drawn
// from it. It fixes the group counts g_R of every relation R, the primary
// input of the paper's cost model.
type Universe struct {
	Schema stream.Schema
	Tuples [][]uint32

	groupCounts map[attr.Set]int // lazily filled cache
}

// NewUniverse wraps a set of tuples. Duplicate tuples are removed.
func NewUniverse(schema stream.Schema, tuples [][]uint32) (*Universe, error) {
	seen := make(map[string]bool, len(tuples))
	var uniq [][]uint32
	for _, tup := range tuples {
		if len(tup) != schema.NumAttrs {
			return nil, fmt.Errorf("gen: tuple arity %d, schema wants %d", len(tup), schema.NumAttrs)
		}
		k := keyString(tup)
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, tup)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("gen: universe needs at least one tuple")
	}
	return &Universe{Schema: schema, Tuples: uniq, groupCounts: make(map[attr.Set]int)}, nil
}

func keyString(vals []uint32) string {
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[i*4:], v)
	}
	return string(buf)
}

// Size returns the number of distinct full-width groups (g of the widest
// relation).
func (u *Universe) Size() int { return len(u.Tuples) }

// GroupCount returns the number of distinct projections of the universe
// onto rel: the paper's g_R. Results are cached.
func (u *Universe) GroupCount(rel attr.Set) int {
	if rel.IsEmpty() {
		return 0
	}
	if g, ok := u.groupCounts[rel]; ok {
		return g
	}
	seen := make(map[string]bool, len(u.Tuples))
	buf := make([]uint32, 0, rel.Size())
	for _, tup := range u.Tuples {
		buf = rel.Project(tup, buf)
		seen[keyString(buf)] = true
	}
	g := len(seen)
	u.groupCounts[rel] = g
	return g
}

// GroupCounts computes g_R for every relation in rels.
func (u *Universe) GroupCounts(rels []attr.Set) map[attr.Set]int {
	out := make(map[attr.Set]int, len(rels))
	for _, r := range rels {
		out[r] = u.GroupCount(r)
	}
	return out
}

// UniformUniverse draws g distinct full-width tuples uniformly from a
// per-attribute value pool of the given size (0 means 2^32). It reproduces
// the paper's synthetic setup of "tuples uniformly at random with a given
// number of groups".
func UniformUniverse(rng *rand.Rand, schema stream.Schema, g int, pool uint32) (*Universe, error) {
	if g <= 0 {
		return nil, fmt.Errorf("gen: need g > 0, got %d", g)
	}
	if pool > 0 {
		max := math.Pow(float64(pool), float64(schema.NumAttrs))
		if float64(g) > max {
			return nil, fmt.Errorf("gen: cannot draw %d distinct tuples from pool %d^%d", g, pool, schema.NumAttrs)
		}
	}
	seen := make(map[string]bool, g)
	tuples := make([][]uint32, 0, g)
	for len(tuples) < g {
		tup := make([]uint32, schema.NumAttrs)
		for i := range tup {
			if pool > 0 {
				tup[i] = uint32(rng.Int63n(int64(pool)))
			} else {
				tup[i] = rng.Uint32()
			}
		}
		k := keyString(tup)
		if !seen[k] {
			seen[k] = true
			tuples = append(tuples, tup)
		}
	}
	return NewUniverse(schema, tuples)
}

// NestedUniverse builds a universe whose *prefix* relations have exactly
// the requested cardinalities: prefixCards[i] is the number of distinct
// projections onto the first i+1 attributes, so prefixCards must be
// non-decreasing and prefixCards[0] distinct values of attribute A exist.
// This is how we hit the paper's published real-data cardinalities
// (552, 1846, 2117, 2837 for A, AB, ABC, ABCD).
//
// Construction: level 0 has prefixCards[0] distinct A values; level i
// extends the prefixCards[i-1] prefixes to prefixCards[i] distinct
// (i+1)-wide prefixes by giving every prefix one child and distributing
// the surplus children at random. Child values are drawn from a pool of
// valuePool distinct values per attribute (0 = unbounded), which controls
// how many distinct values non-prefix relations like B or CD see.
func NestedUniverse(rng *rand.Rand, schema stream.Schema, prefixCards []int, valuePool uint32) (*Universe, error) {
	if len(prefixCards) != schema.NumAttrs {
		return nil, fmt.Errorf("gen: %d prefix cardinalities for %d attributes", len(prefixCards), schema.NumAttrs)
	}
	for i, c := range prefixCards {
		if c <= 0 {
			return nil, fmt.Errorf("gen: prefix cardinality %d must be positive", i)
		}
		if i > 0 && c < prefixCards[i-1] {
			return nil, fmt.Errorf("gen: prefix cardinalities must be non-decreasing (got %d after %d)", c, prefixCards[i-1])
		}
	}

	drawValue := func() uint32 {
		if valuePool > 0 {
			return uint32(rng.Int63n(int64(valuePool)))
		}
		return rng.Uint32()
	}

	// Level 0: distinct A values.
	level := make([][]uint32, 0, prefixCards[0])
	seen := map[uint32]bool{}
	for len(level) < prefixCards[0] {
		v := drawValue()
		if !seen[v] {
			seen[v] = true
			level = append(level, []uint32{v})
		}
	}

	for i := 1; i < schema.NumAttrs; i++ {
		want := prefixCards[i]
		// Every existing prefix gets at least one child; the surplus
		// children go to random prefixes.
		children := make([]int, len(level))
		for j := range children {
			children[j] = 1
		}
		for extra := want - len(level); extra > 0; extra-- {
			children[rng.Intn(len(level))]++
		}
		next := make([][]uint32, 0, want)
		for j, pfx := range level {
			used := map[uint32]bool{}
			for c := 0; c < children[j]; c++ {
				var v uint32
				for {
					v = drawValue()
					if !used[v] {
						used[v] = true
						break
					}
				}
				child := make([]uint32, i+1)
				copy(child, pfx)
				child[i] = v
				next = append(next, child)
			}
		}
		level = next
	}
	return NewUniverse(schema, level)
}

// Uniform draws n records uniformly from the universe's groups, with
// timestamps spread evenly across [0, duration).
func Uniform(rng *rand.Rand, u *Universe, n int, duration uint32) []stream.Record {
	recs := make([]stream.Record, n)
	for i := range recs {
		tup := u.Tuples[rng.Intn(len(u.Tuples))]
		recs[i] = stream.Record{Attrs: tup, Time: timestamp(i, n, duration)}
	}
	return recs
}

// Zipf draws n records from the universe under a Zipf(s) popularity skew
// over groups (s > 1), modelling heavy-hitter traffic mixes.
func Zipf(rng *rand.Rand, u *Universe, n int, duration uint32, s float64) ([]stream.Record, error) {
	if s <= 1 {
		return nil, fmt.Errorf("gen: zipf exponent must be > 1, got %v", s)
	}
	z := rand.NewZipf(rng, s, 1, uint64(len(u.Tuples)-1))
	if z == nil {
		return nil, fmt.Errorf("gen: bad zipf parameters (s=%v, g=%d)", s, len(u.Tuples))
	}
	// Shuffle the rank→group mapping so popularity is independent of the
	// order in which the universe was constructed.
	perm := rng.Perm(len(u.Tuples))
	recs := make([]stream.Record, n)
	for i := range recs {
		tup := u.Tuples[perm[z.Uint64()]]
		recs[i] = stream.Record{Attrs: tup, Time: timestamp(i, n, duration)}
	}
	return recs, nil
}

func timestamp(i, n int, duration uint32) uint32 {
	if duration == 0 || n == 0 {
		return 0
	}
	return uint32(uint64(i) * uint64(duration) / uint64(n))
}

// FlowConfig parameterizes the clustered flow trace generator.
type FlowConfig struct {
	NumRecords  int     // total packets to emit
	Duration    uint32  // stream time units spanned by the trace
	MeanFlowLen float64 // mean packets per flow (geometric length distribution)
	Concurrency int     // max simultaneously active flows (interleaving degree)
	Skew        float64 // 0 = flows pick groups uniformly; >1 = Zipf exponent
}

// FlowTrace is a generated clustered trace: the packet records plus the
// flow structure they were derived from (one tuple per flow, in flow start
// order), which experiments use to "collapse clusteredness" as the paper
// does for Figure 5.
type FlowTrace struct {
	Schema  stream.Schema
	Records []stream.Record
	Flows   [][]uint32
}

// AvgFlowLength returns the realized l_a of the trace.
func (ft *FlowTrace) AvgFlowLength() float64 {
	if len(ft.Flows) == 0 {
		return 0
	}
	return float64(len(ft.Records)) / float64(len(ft.Flows))
}

// OnePerFlow returns a de-clustered copy of the trace with exactly one
// record per flow, reproducing the paper's flow-collapsing step used to
// validate the random-data collision model on real data.
func (ft *FlowTrace) OnePerFlow() []stream.Record {
	recs := make([]stream.Record, len(ft.Flows))
	for i, tup := range ft.Flows {
		recs[i] = stream.Record{Attrs: tup, Time: timestamp(i, len(ft.Flows), ft.recordsDuration())}
	}
	return recs
}

func (ft *FlowTrace) recordsDuration() uint32 {
	if len(ft.Records) == 0 {
		return 0
	}
	return ft.Records[len(ft.Records)-1].Time + 1
}

// Flows generates a clustered packet trace: flows start over time, each
// bound to one group of the universe and to a geometrically distributed
// packet count with the configured mean; at every step one of the active
// flows (at most Concurrency of them) emits the next packet. Packets of
// one flow therefore share all attribute values and are interleaved with
// only a bounded number of other flows — the clusteredness the paper's
// Section 4.3 models.
func Flows(rng *rand.Rand, u *Universe, cfg FlowConfig) (*FlowTrace, error) {
	if cfg.NumRecords <= 0 {
		return nil, fmt.Errorf("gen: NumRecords must be positive")
	}
	if cfg.MeanFlowLen < 1 {
		return nil, fmt.Errorf("gen: MeanFlowLen must be at least 1, got %v", cfg.MeanFlowLen)
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 16
	}

	pickGroup := func() []uint32 { return u.Tuples[rng.Intn(len(u.Tuples))] }
	if cfg.Skew > 1 {
		z := rand.NewZipf(rng, cfg.Skew, 1, uint64(len(u.Tuples)-1))
		perm := rng.Perm(len(u.Tuples))
		pickGroup = func() []uint32 { return u.Tuples[perm[z.Uint64()]] }
	}

	// Geometric flow length with mean m: P(len = k) = p(1-p)^(k-1),
	// p = 1/m.
	p := 1 / cfg.MeanFlowLen
	flowLen := func() int {
		if p >= 1 {
			return 1
		}
		// Inverse CDF sampling.
		uv := rng.Float64()
		k := int(math.Ceil(math.Log(1-uv) / math.Log(1-p)))
		if k < 1 {
			k = 1
		}
		return k
	}

	type activeFlow struct {
		tuple     []uint32
		remaining int
	}

	trace := &FlowTrace{Schema: u.Schema}
	trace.Records = make([]stream.Record, 0, cfg.NumRecords)
	var active []activeFlow
	for len(trace.Records) < cfg.NumRecords {
		// Admit new flows while below the concurrency bound; always admit
		// when nothing is active.
		for len(active) == 0 || len(active) < cfg.Concurrency && rng.Float64() < 0.3 {
			tup := pickGroup()
			active = append(active, activeFlow{tuple: tup, remaining: flowLen()})
			trace.Flows = append(trace.Flows, tup)
		}
		i := rng.Intn(len(active))
		trace.Records = append(trace.Records, stream.Record{
			Attrs: active[i].tuple,
			Time:  timestamp(len(trace.Records), cfg.NumRecords, cfg.Duration),
		})
		active[i].remaining--
		if active[i].remaining == 0 {
			active[i] = active[len(active)-1]
			active = active[:len(active)-1]
		}
	}
	return trace, nil
}

// PaperUniverseCards are the per-prefix group cardinalities of the paper's
// real dataset: A=552, AB=1846, ABC=2117, ABCD=2837 (Section 6.1).
var PaperUniverseCards = []int{552, 1846, 2117, 2837}

// PaperTraceConfig mirrors the paper's real dataset statistics: 860,000
// records over 62 seconds. The mean flow length follows from the record
// count and the number of groups revisited by flows.
var PaperTraceConfig = FlowConfig{
	NumRecords:  860000,
	Duration:    62,
	MeanFlowLen: 30, // ≈ 28k flows; strong clusteredness like TCP traffic
	Concurrency: 64,
	Skew:        0,
}

// PaperUniverse builds the surrogate group universe for the paper's real
// dataset from a seed.
func PaperUniverse(seed int64) (*Universe, error) {
	rng := rand.New(rand.NewSource(seed))
	schema := stream.MustSchema(4)
	// Pool of 1500 values per attribute keeps non-prefix relations (B, C,
	// CD, ...) in the same few-hundred-to-few-thousand group range the
	// paper reports for its extracted relations.
	return NestedUniverse(rng, schema, PaperUniverseCards, 1500)
}

// PaperTrace builds the full surrogate for the paper's tcpdump capture:
// the universe plus a clustered 860k-record flow trace over it.
func PaperTrace(seed int64) (*Universe, *FlowTrace, error) {
	u, err := PaperUniverse(seed)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	ft, err := Flows(rng, u, PaperTraceConfig)
	if err != nil {
		return nil, nil, err
	}
	return u, ft, nil
}

// CountGroups counts the distinct projections of a record batch onto rel;
// the measured g_R of a dataset.
func CountGroups(recs []stream.Record, rel attr.Set) int {
	seen := make(map[string]bool)
	buf := make([]uint32, 0, rel.Size())
	for i := range recs {
		buf = rel.Project(recs[i].Attrs, buf)
		seen[keyString(buf)] = true
	}
	return len(seen)
}
