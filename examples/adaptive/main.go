// Adaptive re-planning: the stream's group structure shifts mid-run and
// the engine re-plans its LFTA configuration between epochs — the
// direction the paper's conclusion sketches, enabled by configuration
// choice taking only milliseconds.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	magg "repro"
)

func main() {
	schema := magg.MustSchema(4)

	// Phase 1 (0-49s): balanced traffic over 400 groups.
	phase1U, err := magg.NewUniformUniverse(11, schema, 400, 30)
	if err != nil {
		log.Fatal(err)
	}
	records := magg.GenerateUniform(12, phase1U, 150000, 50)

	// Phase 2 (50-99s): a scan-like pattern — (A, B) cardinality
	// explodes while C and D collapse to a handful of values.
	tuples := make([][]uint32, 4000)
	for i := range tuples {
		tuples[i] = []uint32{uint32(i * 2654435761), uint32(i * 40503), uint32(i % 2), uint32(i % 3)}
	}
	phase2U, err := magg.NewUniverseFromTuples(schema, tuples)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range magg.GenerateUniform(13, phase2U, 150000, 50) {
		records = append(records, magg.Record{Attrs: r.Attrs, Time: 50 + uint32(i*50/150000)})
	}

	sqls := []string{
		"select A, B, count(*) as cnt from R group by A, B, time/10",
		"select B, C, count(*) as cnt from R group by B, C, time/10",
		"select B, D, count(*) as cnt from R group by B, D, time/10",
		"select C, D, count(*) as cnt from R group by C, D, time/10",
	}
	queries := []magg.Relation{
		magg.MustRelation("AB"), magg.MustRelation("BC"),
		magg.MustRelation("BD"), magg.MustRelation("CD"),
	}

	// Seed the planner with phase-1 statistics only; the shift is a
	// surprise it must react to.
	groups, err := magg.EstimateGroups(records[:100000], queries)
	if err != nil {
		log.Fatal(err)
	}

	// Re-plans happen between epochs, so the result handler — called as
	// each epoch closes — is where they show: the first epoch that ran
	// under a new configuration reports it.
	var eng *magg.Engine
	lastConfig := ""
	onResults := func(_ magg.Relation, epoch uint32, _ []magg.Row, _ magg.Degradation) {
		if cur := eng.Plan().Config.String(); cur != lastConfig {
			fmt.Printf("epoch %d (t=%ds) ran under the re-planned %s (modeled cost %.3f)\n",
				epoch, epoch*10, cur, eng.Plan().Cost)
			lastConfig = cur
		}
	}
	eng, err = magg.NewEngine(sqls, groups, magg.Options{
		M:    40000,
		Seed: 9,
		Adapt: magg.AdaptOptions{
			Enabled:        true,
			EveryEpochs:    1,
			MinImprovement: 0.02,
		},
		OnResults: onResults,
	})
	if err != nil {
		log.Fatal(err)
	}
	lastConfig = eng.Plan().Config.String()
	fmt.Printf("initial configuration: %s (modeled cost %.3f)\n\n", lastConfig, eng.Plan().Cost)

	if err := eng.Run(magg.NewSliceSource(records)); err != nil {
		log.Fatal(err)
	}

	st := eng.Stats()
	fmt.Printf("\nepochs: %d, adaptive re-plans adopted: %d\n", st.Epochs, st.Replans)
	fmt.Printf("actual cost: %.3f per record\n", st.Ops.PerRecordCost(1, 50))
}
