// Command maggd runs the two-level multiple-aggregation engine over a
// trace: it plans an LFTA configuration for the queries, streams the
// records through it, and prints per-epoch query answers.
//
// Usage:
//
//	maggd -trace trace.magt -query "select A, B, count(*) as cnt from R group by A, B, time/10" \
//	      -query "select B, C, count(*) as cnt from R group by B, C, time/10" -m 40000
//
//	maggd -trace trace.magt -queryfile queries.gsql -m 40000 -top 5 -adaptive
//
// A query file holds one GSQL query per line ('#' comments allowed). The
// queries must differ only in their grouping attributes.
//
// Queries with a window clause ("... time/10 window 4 slide 2") and/or
// sketch aggregates (count_distinct, median, percentile) report
// per-window answers composed from panes instead of raw per-epoch rows;
// see docs/WINDOWS.md.
//
// Robustness flags:
//
//   - -budget N enables overload control: the LFTA spends at most N
//     weighted operation units per stream time unit and sheds the rest
//     (-shed droptail|uniform picks the policy); drops are accounted per
//     epoch and printed in the summary.
//   - -shards N partitions the LFTA level into N hash-partitioned shards
//     (Gigascope's one-LFTA-per-interface deployment). -budget stays ONE
//     global budget, split across shards by measured demand and
//     reconciled every epoch; the summary prints the per-shard
//     degradation ledgers, which sum exactly to the global one.
//   - -checkpoint path makes the engine keep a checkpoint log there: a
//     base image plus one appended delta frame per later epoch boundary.
//     If the file already exists, maggd resumes from it, skipping the
//     records of all closed epochs and re-processing the open epoch.
//     SIGINT/SIGTERM flush the final (partial) epoch instead of losing
//     it; the log on disk stays at the last closed boundary, so a later
//     resume re-emits the interrupted epoch whole.
//   - -store dir attaches a durable epoch store: every closed epoch's
//     answers are appended (asynchronously, off the hot path) to a
//     crash-safe segmented log under dir. Opening the store runs
//     automatic recovery — torn tails from a previous crash are truncated
//     to the last intact record. Combined with -checkpoint, a killed run
//     resumes with byte-identical answers for every persisted epoch; if
//     the store is down mid-run the engine degrades gracefully, recording
//     the affected epochs in the durability ledger printed in the summary.
//   - -history N (with -store) prints epoch N's persisted answers from
//     the store instead of streaming; -history all prints every epoch.
//     The store keeps no query text, so these rows print their stored
//     aggregate slots: an avg column shows as its sum and count.
//   - -sink-fail-every N drops every Nth LFTA→HFTA delivery (fault
//     injection); the summary prints per-relation lost mass.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/epochstore"
	"repro/internal/hfta"
	"repro/internal/lfta"
	"repro/internal/query"
	"repro/internal/stream"
)

type queryFlags []string

func (q *queryFlags) String() string { return strings.Join(*q, "; ") }
func (q *queryFlags) Set(s string) error {
	*q = append(*q, s)
	return nil
}

type runConfig struct {
	trace         string
	sqls          []string
	m             int
	sample        int
	top           int
	adaptive      bool
	quiet         bool
	slack         uint32
	budget        float64
	shed          string
	shards        int
	checkpoint    string
	store         string       // durable epoch store directory ("" = none)
	history       string       // "N" or "all": print persisted epochs and exit
	sinkFailEvery int          // drop every Nth LFTA→HFTA delivery (0 = off)
	stop          *atomic.Bool // set externally to request a graceful stop
}

func main() {
	var (
		queries    queryFlags
		trace      = flag.String("trace", "", "binary trace file (required)")
		queryFile  = flag.String("queryfile", "", "file with one GSQL query per line")
		m          = flag.Int("m", 40000, "LFTA memory budget in 4-byte units")
		sample     = flag.Int("sample", 50000, "records sampled to estimate group counts")
		top        = flag.Int("top", 10, "rows printed per query per epoch (0 = all)")
		adaptive   = flag.Bool("adaptive", false, "re-plan between epochs as statistics drift")
		quiet      = flag.Bool("quiet", false, "suppress per-epoch rows; print only the summary")
		slack      = flag.Uint("slack", 0, "reorder out-of-order records within this many time units")
		budget     = flag.Float64("budget", 0, "weighted LFTA operation units per stream time unit (0 = unlimited)")
		shed       = flag.String("shed", "droptail", "shedding policy under -budget: droptail or uniform")
		shards     = flag.Int("shards", 0, "hash-partitioned LFTA shards under one global budget (0 or 1 = one LFTA, no routing)")
		checkpoint = flag.String("checkpoint", "", "checkpoint log: an image plus a delta appended per epoch boundary, resumed from if present")
		store      = flag.String("store", "", "durable epoch store directory: closed epochs persisted crash-safely, recovered on open")
		history    = flag.String("history", "", "with -store: print persisted epoch N (or 'all') as stored slots (avg as sum and count) and exit")
		sinkFail   = flag.Int("sink-fail-every", 0, "drop every Nth LFTA→HFTA delivery (fault injection; 0 = off)")
	)
	flag.Var(&queries, "query", "GSQL query (repeatable)")
	flag.Parse()

	if *history != "" {
		if *store == "" {
			fmt.Fprintln(os.Stderr, "maggd: -history requires -store")
			os.Exit(2)
		}
	} else if *trace == "" {
		fmt.Fprintln(os.Stderr, "maggd: -trace is required")
		flag.Usage()
		os.Exit(2)
	}
	if *queryFile != "" {
		qs, err := readQueryFile(*queryFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "maggd: %v\n", err)
			os.Exit(1)
		}
		queries = append(queries, qs...)
	}
	if len(queries) == 0 && *history == "" {
		fmt.Fprintln(os.Stderr, "maggd: no queries (use -query or -queryfile)")
		os.Exit(2)
	}

	// SIGINT/SIGTERM request a graceful stop: the run loop finishes the
	// current batch, flushes the final epoch, and exits cleanly with the
	// checkpoint (if any) still pointing at the last closed boundary.
	var stop atomic.Bool
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stop.Store(true)
		signal.Stop(sigs) // a second signal kills the process immediately
	}()

	cfg := runConfig{
		trace:         *trace,
		sqls:          queries,
		m:             *m,
		sample:        *sample,
		top:           *top,
		adaptive:      *adaptive,
		quiet:         *quiet,
		slack:         uint32(*slack),
		budget:        *budget,
		shed:          *shed,
		shards:        *shards,
		checkpoint:    *checkpoint,
		store:         *store,
		history:       *history,
		sinkFailEvery: *sinkFail,
		stop:          &stop,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "maggd: %v\n", err)
		os.Exit(1)
	}
}

func readQueryFile(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out, sc.Err()
}

func run(cfg runConfig) error {
	// Open the durable epoch store first: recovery (torn-tail truncation,
	// manifest rebuild) happens here, and the history path needs nothing
	// else.
	var store *epochstore.Store
	if cfg.store != "" {
		var err error
		store, err = epochstore.Open(cfg.store, epochstore.Options{})
		if err != nil {
			return fmt.Errorf("opening epoch store: %w", err)
		}
		defer store.Close()
		if rec := store.Recovery(); rec.Dirty() {
			fmt.Printf("store %s recovered: %d bytes of torn tail truncated, %d segments dropped, %d duplicate frames skipped, manifest rebuilt: %v\n",
				cfg.store, rec.TruncatedBytes, rec.DroppedSegments, rec.DuplicateFrames, rec.ManifestRebuilt)
		}
		fmt.Printf("store %s: %d persisted records across %d epochs\n",
			cfg.store, store.Len(), len(store.Epochs()))
	}
	if cfg.history != "" {
		return printHistory(store, cfg.history, cfg.top)
	}

	// The sample drives the initial group-count estimates; it is the only
	// part of the trace held in memory.
	sample, err := readSample(cfg.trace, cfg.sample)
	if err != nil {
		return err
	}
	var rels []attr.Set
	var spec0 *query.Spec
	specs := map[attr.Set]*query.Spec{}
	for _, sql := range cfg.sqls {
		// Parse leniently here just to collect the grouping relations;
		// engine construction re-validates the full set.
		spec, err := query.Parse(sql)
		if err != nil {
			return err
		}
		if spec0 == nil {
			spec0 = spec
		}
		rels = append(rels, spec.GroupBy)
		specs[spec.GroupBy] = spec
	}
	// Windowed (or sketch-carrying) workloads report per-window answers
	// composed from panes rather than raw per-epoch rows.
	windowed := spec0.Windowed() || len(spec0.Sketches) > 0
	groups, err := core.EstimateGroups(sample, rels)
	if err != nil {
		return err
	}

	opts := core.Options{
		M:              cfg.m,
		Budget:         cfg.budget,
		Shards:         cfg.shards,
		CheckpointPath: cfg.checkpoint,
		Store:          store,
	}
	if cfg.adaptive {
		opts.Adapt = core.AdaptOptions{Enabled: true}
	}
	var sinkFaults *lfta.FaultySink
	if cfg.sinkFailEvery > 0 {
		sinkFaults = lfta.NewFaultySink(lfta.SinkFaults{FailEvery: cfg.sinkFailEvery})
		opts.WrapRunSink = sinkFaults.WrapRun
	}
	if cfg.budget > 0 {
		switch cfg.shed {
		case "", "droptail":
			opts.Shed = core.DropTail{}
		case "uniform":
			opts.Shed = core.NewUniformShed(0, 1)
		default:
			return fmt.Errorf("unknown shedding policy %q (want droptail or uniform)", cfg.shed)
		}
	}
	// Stream results out as epochs close (daemon behaviour: memory stays
	// bounded regardless of stream length).
	opts.OnResults = func(rel attr.Set, epoch uint32, rows []hfta.Row, deg core.Degradation) {
		if cfg.quiet || windowed {
			return
		}
		fmt.Printf("-- query %v, epoch %d: %d groups\n", rel, epoch, len(rows))
		if deg.Dropped+deg.Late > 0 {
			fmt.Printf("   (degraded: %d of %d records shed, %d late; shedding rate %.2f%%)\n",
				deg.Dropped, deg.Offered, deg.Late, 100*deg.SheddingRate())
		}
		printTop(len(rows), cfg.top, func(i int) {
			fmt.Printf("   %v -> %s\n", rows[i].Key, aggText(specs[rel], rows[i].Aggs))
		})
	}
	if windowed {
		// Stream windows as they close (one call per query per window);
		// per-epoch rows are folded into panes instead of printed.
		opts.OnWindow = func(rel attr.Set, led hfta.WindowLedger, rows []hfta.WindowRow) {
			if cfg.quiet {
				return
			}
			fmt.Printf("== window %d [epochs %d..%d], query %v: %d groups\n",
				led.Window, led.Start, led.End, rel, len(rows))
			s := led.Stats
			if s.Dropped+s.Late > 0 {
				fmt.Printf("   (degraded: offered %d = processed %d + dropped %d + late %d)\n",
					s.Offered, s.Processed, s.Dropped, s.Late)
			}
			printTop(len(rows), cfg.top, func(i int) {
				r := rows[i]
				est := ""
				if len(r.Sketch) > 0 {
					est = "  ~" + fmtEstimates(r.Sketch)
				}
				fmt.Printf("   %v -> %s%s\n", r.Key, aggText(specs[rel], r.Aggs), est)
			})
		}
	}
	eng, err := core.New(cfg.sqls, groups, opts)
	if err != nil {
		return err
	}
	fmt.Printf("configuration: %s (modeled cost %.4f/record)\n\n", eng.Plan().Config, eng.Plan().Cost)

	// Resume from an existing checkpoint: skip the records of all closed
	// epochs (post-reordering position) and re-process the open epoch.
	var skip uint64
	if cfg.checkpoint != "" {
		if _, statErr := os.Stat(cfg.checkpoint); statErr == nil {
			skip, err = eng.RestoreCheckpointFile(cfg.checkpoint)
			if err != nil {
				return err
			}
			fmt.Printf("resumed from %s: %d records consumed, %d epochs closed\n",
				cfg.checkpoint, skip, eng.Stats().Epochs)
			if store != nil {
				// Re-hydrate the persisted epochs so historical answers
				// survive the crash byte-identically.
				if err := eng.ReplayStore(); err != nil {
					return err
				}
				fmt.Printf("replayed %d persisted epochs from %s\n", len(store.Epochs()), cfg.store)
			}
			fmt.Println()
		}
	}

	// Ingest the way Engine.Run does: the trace decodes straight into
	// column batches (a reorder window and a resume skip pass batches
	// through), so maggd runs the path the benchmark measures and its
	// memory does not grow with the trace.
	trace, err := stream.OpenTraceSource(cfg.trace)
	if err != nil {
		return err
	}
	defer trace.Close()
	var src stream.Source = trace
	var ordered *stream.OrderedSource
	if cfg.slack > 0 {
		ordered = stream.NewOrderedSource(src, cfg.slack)
		src = ordered
	}
	if skip > 0 {
		src = stream.NewSkipSource(src, skip)
	}

	interrupted := false
	var cb stream.ColumnBatch
	for {
		if cfg.stop != nil && cfg.stop.Load() {
			interrupted = true
			break
		}
		if stream.ReadColumns(src, &cb, stream.ColumnBatchLen) == 0 {
			break
		}
		if err := eng.ProcessColumnBatch(&cb); err != nil {
			return err
		}
	}
	if err := src.Err(); err != nil {
		return err
	}
	if err := eng.Finish(); err != nil {
		return err
	}

	st := eng.Stats()
	fmt.Printf("\nrecords:   %d\n", st.Ops.Records)
	fmt.Printf("probes:    %d (c1 operations)\n", st.Ops.Probes)
	fmt.Printf("transfers: %d (c2 operations)\n", st.Ops.Transfers)
	fmt.Printf("actual cost/record: %.4f (c2/c1 = 50)\n", st.Ops.PerRecordCost(1, 50))
	fmt.Printf("epochs: %d, adaptive re-plans: %d\n", st.Epochs, st.Replans)
	if eng.Windowed() {
		fmt.Printf("windows closed: %d\n", st.Windows)
	}
	d := st.Degradation
	if d.Dropped+d.Late > 0 || cfg.budget > 0 {
		fmt.Printf("degradation: offered %d = processed %d + dropped %d + late %d (shedding rate %.2f%%)\n",
			d.Offered, d.Processed, d.Dropped, d.Late, 100*d.SheddingRate())
	}
	if eng.NumShards() > 1 && cfg.budget > 0 {
		for i, sd := range eng.ShardDegradations() {
			fmt.Printf("  shard %d: offered %d = processed %d + dropped %d + late %d\n",
				i, sd.Offered, sd.Processed, sd.Dropped, sd.Late)
		}
	}
	if ordered != nil {
		fmt.Printf("late records dropped by the reorder window: %d\n", ordered.Late())
	}
	if store != nil {
		dur := eng.Durability()
		fmt.Printf("durability: %d epochs persisted to %s", dur.Persisted, cfg.store)
		if len(dur.Unpersisted) > 0 {
			fmt.Printf(", %d UNPERSISTED (epochs %v)", len(dur.Unpersisted), dur.Unpersisted)
		}
		if dur.QueueFull > 0 {
			fmt.Printf(", %d lost to a full persist queue", dur.QueueFull)
		}
		fmt.Println()
		if dur.LastError != "" {
			fmt.Printf("  last persistence error: %s\n", dur.LastError)
		}
	}
	if sinkFaults != nil {
		fmt.Printf("sink faults: %d deliveries lost\n", sinkFaults.Failures())
		for _, rel := range rels {
			count, mass := sinkFaults.Lost(rel)
			if count == 0 {
				continue
			}
			fmt.Printf("  query %v: %d evictions lost, mass %v\n", rel, count, mass)
		}
	}
	if interrupted {
		// Only advertise the checkpoint if one was actually written: a
		// signal arriving before the first epoch boundary leaves nothing
		// on disk to resume from.
		if _, statErr := os.Stat(cfg.checkpoint); cfg.checkpoint != "" && statErr == nil {
			fmt.Printf("interrupted: final epoch flushed; resume from %s\n", cfg.checkpoint)
		} else {
			fmt.Println("interrupted: final epoch flushed")
		}
	}
	return nil
}

// readSample returns the first n records of a trace (all of them when it
// holds fewer).
func readSample(path string, n int) ([]stream.Record, error) {
	src, err := stream.OpenTraceSource(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	if src.Remaining() == 0 {
		return nil, fmt.Errorf("trace %s is empty", path)
	}
	sample := make([]stream.Record, 0, min(uint64(max(n, 0)), src.Remaining()))
	for len(sample) < cap(sample) {
		rec, ok := src.Next()
		if !ok {
			break
		}
		sample = append(sample, rec)
	}
	return sample, src.Err()
}

// printHistory answers historical-epoch queries straight from the durable
// store: the persisted rows are exactly what the engine emitted when the
// epoch closed (HAVING applied), so no replay is needed.
func printHistory(store *epochstore.Store, sel string, top int) error {
	var epochs []uint32
	if sel == "all" {
		epochs = store.Epochs()
	} else {
		var n uint32
		if _, err := fmt.Sscanf(sel, "%d", &n); err != nil {
			return fmt.Errorf("-history wants an epoch number or 'all', got %q", sel)
		}
		epochs = []uint32{n}
	}
	if len(epochs) == 0 {
		fmt.Println("store holds no epochs")
		return nil
	}
	for _, epoch := range epochs {
		rels := store.Relations(epoch)
		if len(rels) == 0 {
			return fmt.Errorf("epoch %d is not in the store (persisted epochs: %v)", epoch, store.Epochs())
		}
		for _, rel := range rels {
			rec, err := store.Read(epoch, rel)
			if err != nil {
				return err
			}
			fmt.Printf("-- query %v, epoch %d: %d groups", rel, epoch, len(rec.Rows))
			if rec.Dropped+rec.Late > 0 {
				fmt.Printf(" (degraded: %d of %d records shed, %d late)", rec.Dropped, rec.Offered, rec.Late)
			}
			fmt.Println()
			printTop(len(rec.Rows), top, func(i int) {
				fmt.Printf("   %v -> %v\n", rec.Rows[i].Key, rec.Rows[i].Aggs)
			})
		}
	}
	return nil
}

// printTop prints rows 0 … top-1 of n through row (all n when top is 0),
// then how many it left out.
func printTop(n, top int, row func(i int)) {
	limit := n
	if top > 0 && top < limit {
		limit = top
	}
	for i := 0; i < limit; i++ {
		row(i)
	}
	if limit < n {
		fmt.Printf("   ... %d more\n", n-limit)
	}
}

// aggText renders a row's aggregates. A query with an avg column prints the
// columns spec.OutputRow finalizes: each average divided by its count, the
// count slot the avg rewrite added left out, and every other column as its
// exact integer. Any other query prints its stored slots as they are.
func aggText(spec *query.Spec, aggs []int64) string {
	if !slices.ContainsFunc(spec.Aggs, func(a query.Agg) bool { return a.AvgOf >= 0 }) {
		return fmt.Sprint(aggs)
	}
	out := spec.OutputRow(aggs)
	var sb strings.Builder
	sb.WriteByte('[')
	j := 0 // index into out, which holds the visible columns only
	for i, a := range spec.Aggs {
		if a.Hidden {
			continue
		}
		if j > 0 {
			sb.WriteByte(' ')
		}
		if a.AvgOf >= 0 {
			sb.WriteString(strconv.FormatFloat(out[j], 'f', -1, 64))
		} else {
			sb.WriteString(strconv.FormatInt(aggs[i], 10))
		}
		j++
	}
	sb.WriteByte(']')
	return sb.String()
}

// fmtEstimates renders a row's sketch estimates (count_distinct and
// quantile values) compactly.
func fmtEstimates(est []float64) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, v := range est {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%.4g", v)
	}
	sb.WriteByte(']')
	return sb.String()
}
