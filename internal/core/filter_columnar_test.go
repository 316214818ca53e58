package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/attr"
	"repro/internal/feedgraph"
	"repro/internal/gen"
	"repro/internal/hashtab"
	"repro/internal/hfta"
	"repro/internal/lfta"
	"repro/internal/query"
	"repro/internal/stream"
)

// Batch-splitting invariance suite for the engine's one admission path,
// ProcessColumnBatch. The "scalar" leg of these grids feeds one record per
// batch, the finest cut: results, ledgers, stream position and checkpoint
// contents must not depend on where batches are cut — 1, 7, random,
// ColumnBatchLen, Run — for every tag-scan kernel the build supports and
// every shard count. What referees
// the path itself is engine-independent: a brute-force replica built on the
// interpreted WHERE, the clock's lateness rule and hfta.Reference, and the
// checkpoint goldens the record-by-record engine wrote.

// filterSQL shares one two-conjunction DNF WHERE across both queries
// (the engine requires a common filter): with the testWorkload value
// pool of [0, 40) the first conjunction passes roughly a quarter of the
// stream and the disjunct widens it, so neither everything nor nothing
// survives.
var filterSQL = []string{
	"select A, count(*) as cnt from R where B >= 20 and C < 30 or A = 7 group by A, time/10",
	"select C, count(*) as cnt from R where B >= 20 and C < 30 or A = 7 group by C, time/10",
}

var filterQueries = []attr.Set{attr.MustParseSet("A"), attr.MustParseSet("C")}

// filterKernels enumerates the tag-scan kernel selections to run a test
// under; the caller must defer a SetSIMD restore.
func filterKernels() []bool {
	ks := []bool{false}
	if hashtab.SIMDAvailable() {
		ks = append(ks, true)
	}
	return ks
}

// applyWhere partitions a trace with the interpreted matcher — the
// oracle-side filter.
func applyWhere(t *testing.T, sql string, recs []stream.Record) []stream.Record {
	t.Helper()
	spec, err := query.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	var out []stream.Record
	for _, r := range recs {
		if spec.MatchWhere(r.Attrs) {
			out = append(out, r)
		}
	}
	if len(out) == 0 || len(out) == len(recs) {
		t.Fatalf("WHERE passes %d of %d records; the filter test is vacuous", len(out), len(recs))
	}
	return out
}

// lateWorkload clones a trace and pushes some timestamps back across
// epoch boundaries, so the equivalence runs exercise the late-record
// ledger path alongside filtering and rollovers.
func lateWorkload(t *testing.T, n int) ([]stream.Record, []stream.Record) {
	t.Helper()
	recs, _ := testWorkload(t, n)
	chaotic := make([]stream.Record, len(recs))
	copy(chaotic, recs)
	for i := 0; i < len(chaotic); i++ {
		if i%101 == 42 && chaotic[i].Time >= 25 {
			chaotic[i].Time -= 25 // epochLen is 10: a guaranteed regression
		}
	}
	return recs, chaotic
}

// feedColumnBatches drives an engine through ProcessColumnBatch with
// randomly sized batches (1 .. 2*ColumnBatchLen), so epoch rollovers and
// late records land at arbitrary positions inside batches. It stops at
// stopAt records when stopAt > 0 (a mid-stream crash) and returns how
// many records were fed.
func feedColumnBatches(t *testing.T, e *Engine, recs []stream.Record, rng *rand.Rand, stopAt int) int {
	t.Helper()
	var cb stream.ColumnBatch
	pos := 0
	for pos < len(recs) {
		if stopAt > 0 && pos >= stopAt {
			break
		}
		n := 1 + rng.Intn(2*stream.ColumnBatchLen)
		if rest := len(recs) - pos; n > rest {
			n = rest
		}
		cb.Reset(len(recs[pos].Attrs))
		for i := 0; i < n; i++ {
			cb.Append(recs[pos+i].Attrs, recs[pos+i].Time)
		}
		if err := e.ProcessColumnBatch(&cb); err != nil {
			t.Fatal(err)
		}
		pos += n
	}
	return pos
}

// assertEnginesAgree compares every externally observable outcome of two
// finished runs over the same stream.
func assertEnginesAgree(t *testing.T, label string, got, want *Engine) {
	t.Helper()
	if !hfta.Equal(got.AllResults(), want.AllResults()) {
		t.Errorf("%s: results diverge", label)
	}
	if g, w := got.Stats().Degradation, want.Stats().Degradation; g != w {
		t.Errorf("%s: cumulative ledger %+v; want %+v", label, g, w)
	}
	if g, w := got.Consumed(), want.Consumed(); g != w {
		t.Errorf("%s: consumed %d records; want %d", label, g, w)
	}
	if g, w := got.Ops(), want.Ops(); g != w {
		t.Errorf("%s: ops %+v; want %+v", label, g, w)
	}
	ge, we := got.EpochDegradations(), want.EpochDegradations()
	if len(ge) != len(we) {
		t.Errorf("%s: %d closed epochs; want %d", label, len(ge), len(we))
	} else {
		for i := range ge {
			if ge[i] != we[i] {
				t.Errorf("%s: epoch %d ledger %+v; want %+v", label, ge[i].Epoch, ge[i], we[i])
			}
		}
	}
}

// TestColumnBatchMatchesScalarWithWhere: admission — compiled WHERE into a
// selection bitmap, selection-aware routing and probing, mid-batch epoch
// splits — produces record-for-record identical outcomes whether the
// stream is fed one record per batch, in ColumnBatchLen batches or in
// random batches of 1..2*ColumnBatchLen, on a stream that also carries late
// records, for 1 and 4 shards and under every kernel selection.
func TestColumnBatchMatchesScalarWithWhere(t *testing.T) {
	defer hashtab.SetSIMD(hashtab.SIMDEnabled())
	_, chaotic := lateWorkload(t, 30000)
	groups, err := EstimateGroups(chaotic, filterQueries)
	if err != nil {
		t.Fatal(err)
	}
	for _, simd := range filterKernels() {
		hashtab.SetSIMD(simd)
		for _, shards := range []int{0, 4} {
			name := fmt.Sprintf("kernel=%s/shards=%d", hashtab.KernelName(), shards)
			t.Run(name, func(t *testing.T) {
				// M is small enough that the tables evict, so the op
				// counts compared below depend on per-table probe order.
				opts := Options{M: 400, Seed: 3, Shards: shards}
				scalar, err := New(filterSQL, groups, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := feed(scalar, chaotic, 1); err != nil {
					t.Fatal(err)
				}
				if err := scalar.Finish(); err != nil {
					t.Fatal(err)
				}

				full, err := New(filterSQL, groups, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := feedAll(full, chaotic); err != nil {
					t.Fatal(err)
				}
				if err := full.Finish(); err != nil {
					t.Fatal(err)
				}

				random, err := New(filterSQL, groups, opts)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(9000 + shards)))
				feedColumnBatches(t, random, chaotic, rng, 0)
				if err := random.Finish(); err != nil {
					t.Fatal(err)
				}

				for label, e := range map[string]*Engine{"ColumnBatchLen batches": full, "random batches": random} {
					assertEnginesAgree(t, name+" "+label, e, scalar)
					if shards > 1 {
						if g, w := e.ShardDegradations(), scalar.ShardDegradations(); !slices.Equal(g, w) {
							t.Errorf("%s: shard ledgers %+v; want %+v", label, g, w)
						}
						if g, w := e.ShardPositions(), scalar.ShardPositions(); !slices.Equal(g, w) {
							t.Errorf("%s: shard positions %v; want %v", label, g, w)
						}
					}
				}
			})
		}
	}
}

// TestColumnarRunShardedWhereMatchesOracle: Run over a columnar source
// takes the vectorized path end to end; with a non-empty WHERE every
// shard count must agree with the single engine fed one record per batch
// and with the reference oracle over the interpreted-filtered records.
func TestColumnarRunShardedWhereMatchesOracle(t *testing.T) {
	defer hashtab.SetSIMD(hashtab.SIMDEnabled())
	recs, _ := testWorkload(t, 30000)
	filtered := applyWhere(t, filterSQL[0], recs)
	oracle := hfta.Reference(filtered, filterQueries, lfta.CountStar, 10)
	groups, err := EstimateGroups(recs, filterQueries)
	if err != nil {
		t.Fatal(err)
	}

	scalar, err := New(filterSQL, groups, Options{M: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := feed(scalar, recs, 1); err != nil {
		t.Fatal(err)
	}
	if err := scalar.Finish(); err != nil {
		t.Fatal(err)
	}
	if !hfta.Equal(scalar.AllResults(), oracle) {
		t.Fatal("scalar filtered engine differs from the oracle; equivalence baseline is broken")
	}

	for _, simd := range filterKernels() {
		hashtab.SetSIMD(simd)
		for _, shards := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("kernel=%s/shards=%d", hashtab.KernelName(), shards), func(t *testing.T) {
				e, err := New(filterSQL, groups, Options{M: 8000, Seed: 3, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Run(stream.NewSliceSource(recs)); err != nil {
					t.Fatal(err)
				}
				if !hfta.Equal(e.AllResults(), oracle) {
					t.Error("columnar run differs from the oracle")
				}
				if got := e.Consumed(); got != uint64(len(recs)) {
					t.Errorf("consumed %d records; want %d (filtered lanes count toward position)", got, len(recs))
				}
				d := e.Stats().Degradation
				if d.Processed != uint64(len(filtered)) || d.Offered != uint64(len(filtered)) {
					t.Errorf("ledger %+v; want Offered = Processed = %d survivors", d, len(filtered))
				}
				if e.Ops().Records != uint64(len(filtered)) {
					t.Errorf("runtime saw %d records; want %d after filter", e.Ops().Records, len(filtered))
				}
			})
		}
	}
}

// TestFilterCompiledMatchesOracle: the compiled WHERE, on a stream that
// also carries late records, against a brute-force replica — the
// interpreted DNF walk (Spec.MatchWhere) picks the survivors, the
// engine's lateness rule replayed over them alone (a filtered record
// never touches the clock) splits off the late ones, and the reference
// aggregator answers the rest. Results, ledger and stream position must
// match whether the stream arrives one record per batch or through Run,
// under every kernel.
func TestFilterCompiledMatchesOracle(t *testing.T) {
	defer hashtab.SetSIMD(hashtab.SIMDEnabled())
	_, chaotic := lateWorkload(t, 20000)
	groups, err := EstimateGroups(chaotic, filterQueries)
	if err != nil {
		t.Fatal(err)
	}
	clock := stream.NewClock(10)
	var onTime []stream.Record
	want := Degradation{}
	for _, r := range applyWhere(t, filterSQL[0], chaotic) {
		want.Offered++
		if _, _, late := clock.Observe(r.Time); late {
			want.Late++
		} else {
			want.Processed++
			onTime = append(onTime, r)
		}
	}
	if want.Late == 0 {
		t.Fatal("no late record survives the WHERE; the test is vacuous")
	}
	oracle := hfta.Reference(onTime, filterQueries, lfta.CountStar, 10)
	for _, simd := range filterKernels() {
		hashtab.SetSIMD(simd)
		t.Run("kernel="+hashtab.KernelName(), func(t *testing.T) {
			feeds := map[string]func(*Engine) error{
				"columnar": func(e *Engine) error { return e.Run(stream.NewSliceSource(chaotic)) },
				"one record per batch": func(e *Engine) error {
					if err := feed(e, chaotic, 1); err != nil {
						return err
					}
					return e.Finish()
				},
			}
			for name, run := range feeds {
				e, err := New(filterSQL, groups, Options{M: 8000, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				if err := run(e); err != nil {
					t.Fatal(err)
				}
				if !hfta.Equal(e.AllResults(), oracle) {
					t.Errorf("%s feed: results differ from the oracle", name)
				}
				if got := e.Stats().Degradation; got.Offered != want.Offered || got.Late != want.Late || got.Processed != want.Processed {
					t.Errorf("%s feed: ledger %+v; replica says %+v", name, got, want)
				}
				if got := e.Consumed(); got != uint64(len(chaotic)) {
					t.Errorf("%s feed: consumed %d records; want %d", name, got, len(chaotic))
				}
			}
		})
	}
}

// TestColumnarWhereCheckpointResume: a checkpoint written at a mid-batch
// epoch rollover records the stream position strictly before the rolling
// record with filtered lanes included — so a crash during columnar
// ingest resumes to exactly the uninterrupted run's emissions.
func TestColumnarWhereCheckpointResume(t *testing.T) {
	for _, shards := range []int{0, 1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			columnarKillRestore(t, filterSQL, func() Options { return Options{M: 8000, Seed: 3, Shards: shards} })
		})
	}
}

// TestColumnarBudgetCheckpointResume: the same crash under overload
// control. The restored engine carries the shed policy's RNG position and
// the budget split, and per-record admission inside the batch resumes at
// the checkpointed lane, so kill + restore + column-fed replay sheds the
// records the uninterrupted run shed.
func TestColumnarBudgetCheckpointResume(t *testing.T) {
	for _, policy := range []string{"droptail", "uniform"} {
		for _, shards := range []int{0, 1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", policy, shards), func(t *testing.T) {
				columnarKillRestore(t, budgetSQL(true), func() Options {
					return Options{M: 8000, Seed: 3, Shards: shards, Budget: 150, Shed: shedPolicyFor(policy)}
				})
			})
		}
	}
}

// columnarKillRestore runs the workload three times with fresh options
// from mkOpts: uninterrupted; column-fed in random batch sizes with a
// checkpoint at every boundary and killed after 17000 records; and
// restored from that checkpoint and column-fed the rest. Crashed plus
// resumed emissions and ledgers must equal the uninterrupted run's.
func columnarKillRestore(t *testing.T, sqls []string, mkOpts func() Options) {
	t.Helper()
	recs, _ := testWorkload(t, 30000)
	groups, err := EstimateGroups(recs, filterQueries)
	if err != nil {
		t.Fatal(err)
	}

	wantEmit := emissionMap{}
	ropts := mkOpts()
	ropts.OnResults = collectEmissions(t, wantEmit)
	ref, err := New(sqls, groups, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(stream.NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	if d := ref.Stats().Degradation; ropts.Budget > 0 && (d.Dropped == 0 || d.Processed == 0) {
		t.Fatalf("ledger %+v: the budget sheds nothing or everything", d)
	}

	ckpt := filepath.Join(t.TempDir(), "columnar.ckpt")
	copts := mkOpts()
	copts.CheckpointPath = ckpt
	crashEmit := emissionMap{}
	copts.OnResults = collectEmissions(t, crashEmit)
	e1, err := New(sqls, groups, copts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	fed := feedColumnBatches(t, e1, recs, rng, 17000)
	// No Finish: the process is gone mid-stream.

	resumeEmit := emissionMap{}
	popts := mkOpts()
	popts.OnResults = collectEmissions(t, resumeEmit)
	e2, err := New(sqls, groups, popts)
	if err != nil {
		t.Fatal(err)
	}
	consumed, err := e2.RestoreCheckpointFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if consumed == 0 || consumed > uint64(fed) {
		t.Fatalf("restored position %d out of range (0, %d]", consumed, fed)
	}
	feedColumnBatches(t, e2, recs[consumed:], rng, 0)
	if err := e2.Finish(); err != nil {
		t.Fatal(err)
	}

	got := emissionMap{}
	for k, v := range crashEmit {
		got[k] = v
	}
	for k, v := range resumeEmit {
		if prev, dup := got[k]; dup && prev != v {
			t.Errorf("epoch %d of %v emitted differently by crashed and resumed runs", k.epoch, k.rel)
		}
		got[k] = v
	}
	if len(got) != len(wantEmit) {
		t.Fatalf("crash+resume emitted %d (query, epoch) results; uninterrupted run emitted %d",
			len(got), len(wantEmit))
	}
	for k, want := range wantEmit {
		if got[k] != want {
			t.Errorf("epoch %d of %v differs from the uninterrupted run", k.epoch, k.rel)
		}
	}
	if g, w := e2.Stats().Degradation, ref.Stats().Degradation; g != w {
		t.Errorf("resumed cumulative ledger %+v; uninterrupted %+v", g, w)
	}
	if g, w := e2.EpochDegradations(), ref.EpochDegradations(); !slices.Equal(g, w) {
		t.Errorf("resumed per-epoch ledgers %+v; uninterrupted %+v", g, w)
	}
	if g, w := e2.ShardEpochDegradations(), ref.ShardEpochDegradations(); !reflect.DeepEqual(g, w) {
		t.Errorf("resumed per-shard ledgers %+v; uninterrupted %+v", g, w)
	}
}

// TestNoWhereZeroFilterOverhead is the regression gate for satellite 4:
// an engine without a WHERE clause must carry no filter state at all, so
// the admission paths pay nothing, and the batch path must select every
// lane.
func TestNoWhereZeroFilterOverhead(t *testing.T) {
	recs, groups := testWorkload(t, 2000)
	e, err := New(pairSQL, groups, Options{M: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if e.filter != nil {
		t.Fatal("no-WHERE engine carries a compiled filter")
	}
	var cb stream.ColumnBatch
	cb.Reset(len(recs[0].Attrs))
	for i := 0; i < 100; i++ {
		cb.Append(recs[i].Attrs, recs[i].Time)
	}
	if err := e.ProcessColumnBatch(&cb); err != nil {
		t.Fatal(err)
	}
	live := 0
	for i := 0; i < 100; i++ {
		if cb.Sel[i>>6]&(1<<(uint(i)&63)) != 0 {
			live++
		}
	}
	if live != 100 {
		t.Fatalf("no-WHERE batch selected %d of 100 lanes; want all", live)
	}
	if d := e.Stats().Degradation; d.Offered != 100 || d.Processed != 100 {
		t.Fatalf("no-WHERE batch ledger %+v; want 100 offered and processed", d)
	}
}

// Invariance under a budget: overload control admits record by record, in
// lane order, inside whatever batch a record arrives in, so for one stream
// and seed every way of cutting it sheds exactly the same records.

// budgetSQL groups like filterSQL, with an optional WHERE on A that passes
// about half of testWorkload's [0, 40) value pool.
func budgetSQL(where bool) []string {
	w := ""
	if where {
		w = " where A < 20"
	}
	return []string{
		"select A, count(*) as cnt from R" + w + " group by A, time/10",
		"select C, count(*) as cnt from R" + w + " group by C, time/10",
	}
}

// admitLog is a ShedPolicy that copies what every Admit call was shown —
// the attributes (the engine hands a buffer it reuses), the time and
// the exhausted flag — and forwards to the wrapped policy, state words
// included, so a checkpoint is written as if the policy were unwrapped.
type admitLog struct {
	inner     ShedPolicy
	attrs     []uint32
	times     []uint32
	exhausted []bool
	admitted  []bool // the wrapped policy's verdicts, for the oracle leg
}

func (l *admitLog) Admit(rec stream.Record, exhausted bool) bool {
	l.attrs = append(l.attrs, rec.Attrs...)
	l.times = append(l.times, rec.Time)
	l.exhausted = append(l.exhausted, exhausted)
	ok := l.inner.Admit(rec, exhausted)
	l.admitted = append(l.admitted, ok)
	return ok
}

func (l *admitLog) EpochEnd(d Degradation) { l.inner.EpochEnd(d) }

func (l *admitLog) ShedState() []uint64 {
	if s, ok := l.inner.(ShedPolicyState); ok {
		return s.ShedState()
	}
	return nil
}

func (l *admitLog) RestoreShedState(words []uint64) error {
	return l.inner.(ShedPolicyState).RestoreShedState(words)
}

// budgetFeed is one engine of the budget grid with everything the feeds are
// compared on: per-epoch rows, the checkpoint image written at every epoch
// boundary, and the policy's view of every admission.
type budgetFeed struct {
	e     *Engine
	emit  emissionMap
	ckpts [][]byte
	log   *admitLog
	path  string
}

// grabCheckpoint appends the image the engine last wrote, if it has written
// one since the previous grab.
func (f *budgetFeed) grabCheckpoint(t *testing.T) {
	t.Helper()
	img, err := os.ReadFile(f.path)
	if os.IsNotExist(err) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if n := len(f.ckpts); n == 0 || !bytes.Equal(f.ckpts[n-1], img) {
		f.ckpts = append(f.ckpts, img)
	}
}

// newBudgetFeed builds a budgeted engine writing a checkpoint at every
// boundary. The result handler of epoch N runs before N's checkpoint is
// written, so it finds the image of boundary N-1 on disk; finish collects
// the last one.
func newBudgetFeed(t *testing.T, sqls []string, groups feedgraph.GroupCounts, policy string, shards int, budget float64) *budgetFeed {
	t.Helper()
	f := &budgetFeed{emit: emissionMap{}, log: &admitLog{inner: shedPolicyFor(policy)},
		path: filepath.Join(t.TempDir(), "budget.ckpt")}
	collect := collectEmissions(t, f.emit)
	e, err := New(sqls, groups, Options{M: 8000, Seed: 3, Shards: shards, Budget: budget, Shed: f.log,
		CheckpointPath: f.path,
		OnResults: func(rel attr.Set, epoch uint32, rows []hfta.Row, deg Degradation) {
			f.grabCheckpoint(t)
			collect(rel, epoch, rows, deg)
		}})
	if err != nil {
		t.Fatal(err)
	}
	f.e = e
	return f
}

func (f *budgetFeed) finish(t *testing.T) {
	t.Helper()
	f.grabCheckpoint(t)
	if err := f.e.Finish(); err != nil {
		t.Fatal(err)
	}
}

// assertBudgetFeedMatchesOracle referees one budgeted run without another
// engine: the interpreted WHERE picks the survivors of in, the clock's
// lateness rule replayed over them alone splits off the late ones, and the
// rest must be exactly what the shed policy was offered, in order. Over
// exactly the records the policy admitted, hfta.Reference must give the
// rows the engine emitted, and the replica's per-epoch counts its ledgers.
func assertBudgetFeedMatchesOracle(t *testing.T, f *budgetFeed, sql string, in []stream.Record) {
	t.Helper()
	spec, err := query.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	clock := stream.NewClock(spec.EpochLen)
	var want []Degradation // by arrival epoch, in closing order
	var admitted []stream.Record
	k := 0 // admissions replayed so far
	for _, r := range in {
		if !spec.MatchWhere(r.Attrs) {
			continue
		}
		epoch, _, late := clock.Observe(r.Time)
		if len(want) == 0 || want[len(want)-1].Epoch != epoch {
			want = append(want, Degradation{Epoch: epoch})
		}
		led := &want[len(want)-1]
		led.Offered++
		if late {
			led.Late++
			continue
		}
		w := len(r.Attrs)
		if k >= len(f.log.times) || f.log.times[k] != r.Time || !slices.Equal(f.log.attrs[k*w:(k+1)*w], r.Attrs) {
			t.Fatalf("oracle: admission %d is not on-time survivor %v", k, r)
		}
		if f.log.admitted[k] {
			led.Processed++
			admitted = append(admitted, r)
		} else {
			led.Dropped++
		}
		k++
	}
	if k != len(f.log.times) {
		t.Errorf("oracle: the policy was offered %d records; the replica has %d on-time survivors", len(f.log.times), k)
	}
	if got := f.e.EpochDegradations(); !slices.Equal(got, want) {
		t.Errorf("oracle: per-epoch ledgers %+v; replica counts %+v", got, want)
	}
	oracle := map[epochKey][]hfta.Row{}
	for _, r := range hfta.Reference(admitted, filterQueries, lfta.CountStar, spec.EpochLen) {
		k := epochKey{r.Rel, r.Epoch}
		oracle[k] = append(oracle[k], r)
	}
	for k, rows := range oracle {
		if _, ok := f.emit[k]; !ok {
			t.Errorf("oracle: epoch %d of %v has %d groups over the admitted records; the engine emitted nothing", k.epoch, k.rel, len(rows))
		}
	}
	for k, got := range f.emit {
		if got != renderRows(oracle[k]) {
			t.Errorf("oracle: epoch %d of %v differs from the reference over the admitted records", k.epoch, k.rel)
		}
	}
}

// assertBudgetFeedsAgree compares two runs over the same stream, cut into
// batches differently.
func assertBudgetFeedsAgree(t *testing.T, label string, got, want *budgetFeed) {
	t.Helper()
	assertEnginesAgree(t, label, got.e, want.e)
	if len(got.emit) != len(want.emit) {
		t.Errorf("%s: %d (query, epoch) emissions; want %d", label, len(got.emit), len(want.emit))
	}
	for k, w := range want.emit {
		if got.emit[k] != w {
			t.Errorf("%s: epoch %d of %v has different rows", label, k.epoch, k.rel)
		}
	}
	if !reflect.DeepEqual(got.e.ShardEpochDegradations(), want.e.ShardEpochDegradations()) {
		t.Errorf("%s: per-shard epoch ledgers diverge", label)
	}
	if g, w := got.e.ShardPositions(), want.e.ShardPositions(); !slices.Equal(g, w) {
		t.Errorf("%s: shard positions %v; want %v", label, g, w)
	}
	if len(got.ckpts) != len(want.ckpts) {
		t.Errorf("%s: %d checkpoints written; want %d", label, len(got.ckpts), len(want.ckpts))
	} else {
		for i := range want.ckpts {
			if !bytes.Equal(got.ckpts[i], want.ckpts[i]) {
				t.Errorf("%s: checkpoint at boundary %d differs (%d bytes vs %d)",
					label, i, len(got.ckpts[i]), len(want.ckpts[i]))
			}
		}
	}
	gl, wl := got.log, want.log
	if !slices.Equal(gl.times, wl.times) || !slices.Equal(gl.exhausted, wl.exhausted) || !slices.Equal(gl.attrs, wl.attrs) {
		t.Errorf("%s: the shed policy saw a different admission sequence (%d calls; want %d)",
			label, len(gl.times), len(wl.times))
	}
}

// TestColumnBatchBudgetMatchesScalar: with Budget > 0 the outcome is
// invariant under batch splitting — one record per batch, batch lengths 7
// and ColumnBatchLen that put epoch rolls and budget ticks mid-batch, and
// Run over a ColumnSource: same rows per epoch, same ledgers per epoch and
// per shard, same positions and operation counts, the same bytes in every
// checkpoint, and the same (attrs, time, exhausted) sequence offered to the
// policy. The one-record run, which the others are compared with, is
// itself refereed by the brute-force oracle.
func TestColumnBatchBudgetMatchesScalar(t *testing.T) {
	recs, _ := testWorkload(t, 12000)
	chaotic, err := stream.Collect(stream.NewChaosSource(stream.NewSliceSource(recs),
		stream.ChaosOptions{Seed: 5, RegressEvery: 97, RegressBy: 25, DuplicateEvery: 53}))
	if err != nil {
		t.Fatal(err)
	}
	groups, err := EstimateGroups(recs, filterQueries)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"droptail", "uniform"} {
		for _, shards := range []int{0, 2, 4} {
			for _, where := range []bool{false, true} {
				for _, chaos := range []bool{false, true} {
					name := fmt.Sprintf("%s/shards=%d/where=%v/chaos=%v", policy, shards, where, chaos)
					t.Run(name, func(t *testing.T) {
						in, budget := recs, 120.0
						if chaos {
							in = chaotic
						}
						if where {
							budget /= 2 // half the records reach admission
						}
						sqls := budgetSQL(where)
						scalar := newBudgetFeed(t, sqls, groups, policy, shards, budget)
						if err := feed(scalar.e, in, 1); err != nil {
							t.Fatal(err)
						}
						scalar.finish(t)
						d := scalar.e.Stats().Degradation
						if d.Dropped == 0 || d.Processed == 0 || chaos && d.Late == 0 {
							t.Fatalf("ledger %+v: the budget sheds nothing or everything, or chaos made no record late", d)
						}
						if len(scalar.ckpts) != len(scalar.e.EpochDegradations())-1 {
							t.Fatalf("captured %d checkpoints over %d closed epochs", len(scalar.ckpts), len(scalar.e.EpochDegradations()))
						}
						assertBudgetFeedMatchesOracle(t, scalar, sqls[0], in)

						for _, batch := range []int{7, stream.ColumnBatchLen} {
							col := newBudgetFeed(t, sqls, groups, policy, shards, budget)
							if err := feed(col.e, in, batch); err != nil {
								t.Fatal(err)
							}
							col.finish(t)
							assertBudgetFeedsAgree(t, fmt.Sprintf("batch=%d", batch), col, scalar)
						}

						run := newBudgetFeed(t, sqls, groups, policy, shards, budget)
						if err := run.e.Run(stream.NewSliceSource(in)); err != nil {
							t.Fatal(err)
						}
						run.grabCheckpoint(t)
						assertBudgetFeedsAgree(t, "Run", run, scalar)
					})
				}
			}
		}
	}
}

// TestColumnarBudgetRunAllocs: a budgeted, sharded Run over a trace file
// stays on the columnar decode, so what it allocates does not depend on how
// many records the trace holds. (Through Source.Next it paid one attribute
// slice per record.)
func TestColumnarBudgetRunAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	schema := stream.MustSchema(4)
	u, err := gen.UniformUniverse(rng, schema, 64, 40)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{4096, 65536}
	recs := gen.Uniform(rng, u, sizes[1], 40)
	groups, err := EstimateGroups(recs, filterQueries)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var per [2]float64
	for i, n := range sizes {
		// Every n-th record of the long trace: the same 4 epochs and the
		// same 64 groups in each, at either length.
		sub := make([]stream.Record, 0, n)
		for j := 0; j < len(recs); j += len(recs) / n {
			sub = append(sub, recs[j])
		}
		path := filepath.Join(dir, fmt.Sprintf("%d.magt", n))
		if err := stream.WriteTraceFile(path, schema, sub); err != nil {
			t.Fatal(err)
		}
		var shed Degradation
		per[i] = testing.AllocsPerRun(3, func() {
			e, err := New(budgetSQL(false), groups, Options{M: 8000, Seed: 3, Shards: 2,
				Budget: float64(n) / 40, Shed: shedPolicyFor("uniform")})
			if err != nil {
				t.Fatal(err)
			}
			src, err := stream.OpenTraceSource(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Run(src); err != nil {
				t.Fatal(err)
			}
			shed = e.Stats().Degradation
		})
		if shed.Offered != uint64(n) || shed.Dropped == 0 || shed.Processed == 0 {
			t.Fatalf("%d records: ledger %+v; want all offered, some shed, some processed", n, shed)
		}
	}
	if per[1]-per[0] > 8 {
		t.Errorf("Run allocated %.0f times over %d records and %.0f over %d; want the same but for buffer growth",
			per[0], sizes[0], per[1], sizes[1])
	}
}
