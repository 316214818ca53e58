package hfta

import (
	"slices"
	"sort"

	"repro/internal/attr"
	"repro/internal/lfta"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// Brute-force sliding-window oracle: recompute every window from the raw
// record slice with none of the pane machinery, as the ground truth the
// property suite pins the composer against. The oracle models the same
// admission semantics the engine applies — a monotone clock where
// cross-epoch timestamp regressions are Late and never processed — so
// callers feed it the identical (already WHERE-filtered) record sequence
// the engine saw.

// OracleRow is one group's recomputed result for one window.
type OracleRow struct {
	Rel    attr.Set
	Window uint32
	Start  uint32
	End    uint32
	Key    []uint32
	Aggs   []int64
	// Sketch holds the direct-fed sketch estimates (no pane splits),
	// aligned with the sketch agg list. HLL register-max merging is
	// exactly associative, so the engine's pane-merged distinct
	// estimates must equal these bitwise; t-digest entries are the
	// reference approximation, checked via Values rank error instead.
	Sketch []float64
	// ExactDistinct is the true distinct count per sketch agg (-1 for
	// quantile entries).
	ExactDistinct []int64
	// Values holds the exact sorted observed values per quantile sketch
	// agg (nil for distinct entries), for rank-error assertions.
	Values [][]float64
}

// OracleWindow is one recomputed window: ledger plus rows in query
// order, sorted by group key (numeric, per attribute) within each
// relation.
type OracleWindow struct {
	Ledger WindowLedger
	Rows   []OracleRow
}

// WindowOracle recomputes every window the composer would emit for the
// record sequence. Windows whose span contains no observed epoch are
// omitted, matching the composer's gap skipping.
func WindowOracle(recs []stream.Record, queries []attr.Set, aggs []lfta.AggSpec, saggs []sketch.Agg, precision uint8, compression float64, epochLen uint32, win WindowSpec) []OracleWindow {
	if precision == 0 {
		precision = sketch.DefaultPrecision
	}
	if compression == 0 {
		compression = sketch.DefaultCompression
	}
	clock := &stream.Clock{Length: epochLen}
	type timed struct {
		rec   stream.Record
		epoch uint32
	}
	var onTime []timed
	stats := map[uint32]*PaneStats{}
	at := func(e uint32) *PaneStats {
		s := stats[e]
		if s == nil {
			s = &PaneStats{}
			stats[e] = s
		}
		return s
	}
	for _, rec := range recs {
		_, _, late := clock.Observe(rec.Time)
		_, cur, _ := clock.Snapshot()
		s := at(cur)
		s.Offered++
		if late {
			s.Late++
			continue
		}
		s.Processed++
		onTime = append(onTime, timed{rec, cur})
	}
	if len(stats) == 0 {
		return nil
	}
	// Candidate windows: every index whose span contains an observed
	// epoch, exactly the composer's emission set.
	windowSet := map[int64]bool{}
	var maxEpoch uint32
	for e := range stats {
		if e > maxEpoch {
			maxEpoch = e
		}
		lo := fastForward(0, int64(e), win)
		for i := lo; win.start(i) <= int64(e); i++ {
			windowSet[i] = true
		}
	}
	indices := make([]int64, 0, len(windowSet))
	for i := range windowSet {
		indices = append(indices, i)
	}
	sort.Slice(indices, func(a, b int) bool { return indices[a] < indices[b] })

	var out []OracleWindow
	for _, i := range indices {
		start, end := win.start(i), win.end(i)
		ow := OracleWindow{Ledger: WindowLedger{Window: uint32(i), Start: uint32(start), End: uint32(end)}}
		for e := start; e <= end; e++ {
			if s := stats[uint32(e)]; s != nil {
				ow.Ledger.Stats.add(*s)
			}
		}
		type acc struct {
			aggs     []int64
			sk       *sketch.Partial
			distinct []map[uint32]bool
			values   [][]float64
		}
		var keyBuf []uint32
		for _, q := range queries {
			groups := map[string]*acc{}
			for _, tr := range onTime {
				if int64(tr.epoch) < start || int64(tr.epoch) > end {
					continue
				}
				keyBuf = q.Project(tr.rec.Attrs, keyBuf)
				k := PackKey(keyBuf)
				a := groups[k]
				if a == nil {
					a = &acc{aggs: identities(aggs)}
					if len(saggs) > 0 {
						a.sk, _ = sketch.NewPartial(saggs, precision, compression)
						a.distinct = make([]map[uint32]bool, len(saggs))
						a.values = make([][]float64, len(saggs))
						for j, sa := range saggs {
							if sa.Kind == sketch.Distinct {
								a.distinct[j] = map[uint32]bool{}
							}
						}
					}
					groups[k] = a
				}
				for j, spec := range aggs {
					d := int64(1)
					if spec.Input >= 0 {
						d = int64(tr.rec.Attrs[spec.Input])
					}
					a.aggs[j] = spec.Op.Combine(a.aggs[j], d)
				}
				if a.sk != nil {
					a.sk.Observe(tr.rec.Attrs)
					for j, sa := range saggs {
						var v uint32
						if sa.Input >= 0 && sa.Input < len(tr.rec.Attrs) {
							v = tr.rec.Attrs[sa.Input]
						}
						switch sa.Kind {
						case sketch.Distinct:
							a.distinct[j][v] = true
						case sketch.Quantile:
							a.values[j] = append(a.values[j], float64(v))
						}
					}
				}
			}
			keys := make([][]uint32, 0, len(groups))
			for k := range groups {
				keys = append(keys, UnpackKey(k))
			}
			slices.SortFunc(keys, slices.Compare)
			for _, key := range keys {
				a := groups[PackKey(key)]
				row := OracleRow{
					Rel:    q,
					Window: uint32(i),
					Start:  uint32(start),
					End:    uint32(end),
					Key:    key,
					Aggs:   a.aggs,
				}
				if a.sk != nil {
					row.Sketch = a.sk.Estimates(nil)
					row.ExactDistinct = make([]int64, len(saggs))
					row.Values = make([][]float64, len(saggs))
					for j, sa := range saggs {
						switch sa.Kind {
						case sketch.Distinct:
							row.ExactDistinct[j] = int64(len(a.distinct[j]))
						case sketch.Quantile:
							row.ExactDistinct[j] = -1
							sort.Float64s(a.values[j])
							row.Values[j] = a.values[j]
						}
					}
				}
				ow.Rows = append(ow.Rows, row)
			}
		}
		out = append(out, ow)
	}
	return out
}
