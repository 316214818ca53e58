package main

import (
	"fmt"
	"path/filepath"
	"slices"

	magg "repro"
	"repro/internal/hfta"
)

// verifyPrefix runs the workload's own configuration, with the budget off,
// over the first records of the trace and compares every answer with a
// computation that shares nothing with the pipeline: magg.Reference for
// epoch rows, hfta.WindowOracle for window rows and sketch estimates, and
// the store's contents against what was emitted.
func verifyPrefix(p *prepared) (c checks, err error) {
	w := p.w
	fail := func(n int64, format string, args ...any) {
		c.fail(n, "verify: "+format, args...)
	}
	recs, err := readPrefix(p.tracePath, w.verifyRecords)
	if err != nil {
		return c, err
	}
	passing := recs
	if w.whereBelow > 0 {
		passing = nil
		for _, r := range recs {
			if r.Attrs[0] < w.whereBelow {
				passing = append(passing, r)
			}
		}
	}
	queries := w.queries()
	want := magg.Reference(passing, queries, magg.CountStar, w.epochLen)
	c.attempted += int64(len(want))

	if w.parallel {
		agg, err := magg.NewAggregator(queries, magg.CountStar)
		if err != nil {
			return c, err
		}
		plan, err := magg.Plan(queries, p.groups, memoryUnits, magg.DefaultParams())
		if err != nil {
			return c, err
		}
		sh, err := magg.NewShardedLFTA(plan.Config, plan.Alloc, magg.CountStar, uint64(p.seed), nil, w.shards)
		if err != nil {
			return c, err
		}
		sh.SetRunSink(agg.MergeRun, 0)
		if _, err := sh.RunParallel(magg.NewSliceSource(recs), w.epochLen); err != nil {
			return c, err
		}
		if got := agg.AllRows(); !magg.RowsEqual(got, want) {
			fail(wrongRows(got, want), "parallel pipeline's rows differ from the reference (%d rows vs %d)", len(got), len(want))
		}
		return c, nil
	}

	opts := p.options()
	opts.Budget, opts.Shed = 0, nil
	var store *magg.EpochStore
	if w.durable {
		if store, err = magg.OpenEpochStore(filepath.Join(p.dir, "verify-store"), magg.EpochStoreOptions{}); err != nil {
			return c, err
		}
		defer store.Close()
		opts.Store = store
		opts.StoreQueue = 1 << 14
		opts.CheckpointPath = filepath.Join(p.dir, "verify.ckpt")
	}
	eng, err := magg.NewEngine(w.sqls(), p.groups, opts)
	if err != nil {
		return c, err
	}
	if err := eng.Run(magg.NewSliceSource(recs)); err != nil {
		return c, err
	}
	got := eng.AllResults()
	if !magg.RowsEqual(got, want) {
		fail(wrongRows(got, want), "engine's rows differ from the reference (%d rows vs %d)", len(got), len(want))
	}

	if w.windowed {
		spec, err := magg.ParseQuery(w.sqls()[0])
		if err != nil {
			return c, err
		}
		oracle := hfta.WindowOracle(passing, queries, magg.CountStar, spec.SketchSpecs(), sketchPrecision, 0, w.epochLen,
			hfta.WindowSpec{Size: spec.WindowSize, Slide: spec.WindowSlide})
		rows := eng.WindowResults()
		i := 0
		for _, ow := range oracle {
			for _, or := range ow.Rows {
				c.attempted++
				if i >= len(rows) {
					fail(1, "window %d %v: row missing", or.Window, or.Rel)
					continue
				}
				r := rows[i]
				i++
				if r.Rel != or.Rel || r.Window != or.Window || !slices.Equal(r.Key, or.Key) ||
					!slices.Equal(r.Aggs, or.Aggs) || !slices.Equal(r.Sketch, or.Sketch) {
					fail(1, "window %d %v key %v: got %v %v, oracle %v %v", or.Window, or.Rel, or.Key, r.Aggs, r.Sketch, or.Aggs, or.Sketch)
				}
			}
		}
		if i != len(rows) {
			fail(int64(len(rows)-i), "%d window rows the oracle does not have", len(rows)-i)
		}
	}

	if store != nil {
		// The store must hold exactly what was emitted, epoch by epoch.
		type slot struct {
			epoch uint32
			rel   magg.Relation
		}
		emitted := map[slot][]magg.Row{}
		for _, r := range got {
			k := slot{r.Epoch, r.Rel}
			emitted[k] = append(emitted[k], r)
		}
		seen := 0
		err := store.Scan(func(rec *magg.EpochStoreRecord) error {
			seen++
			rows := emitted[slot{rec.Epoch, rec.Rel}]
			ok := len(rows) == len(rec.Rows)
			for i := 0; ok && i < len(rows); i++ {
				ok = slices.Equal(rows[i].Key, rec.Rows[i].Key) && slices.Equal(rows[i].Aggs, rec.Rows[i].Aggs)
			}
			if !ok {
				fail(1, "store record (epoch %d, %v) differs from the emitted rows", rec.Epoch, rec.Rel)
			}
			return nil
		})
		if err != nil {
			return c, err
		}
		c.attempted += int64(len(emitted))
		if seen != len(emitted) {
			fail(absDiff(uint64(seen), uint64(len(emitted))), "store holds %d records, %d were emitted", seen, len(emitted))
		}
	}
	return c, nil
}

// wrongRows counts the reference rows the pipeline did not reproduce,
// plus the rows it invented.
func wrongRows(got, want []magg.Row) int64 {
	key := func(r magg.Row) string { return fmt.Sprint(r.Rel, r.Epoch, r.Key, r.Aggs) }
	have := map[string]int{}
	for _, r := range got {
		have[key(r)]++
	}
	var wrong int64
	for _, r := range want {
		if have[key(r)] > 0 {
			have[key(r)]--
		} else {
			wrong++
		}
	}
	for _, n := range have {
		wrong += int64(n)
	}
	return max(wrong, 1)
}
