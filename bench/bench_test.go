package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// testConfig is a pinned, test-sized run: the warm-up pass and one timed
// pass of each workload at 1/16 size.
func testConfig(t *testing.T, seed int64) config {
	return config{seed: seed, seconds: 1, dataDir: t.TempDir(), short: true, verify: true, passes: 2}
}

// TestSmoke runs all six workloads untraced and traced at test size and
// checks the benchmark's contract: every named metric present, traced rows
// equal to the engine's, answers equal to the reference, names and counts
// within the driver's limits, and BENCHMARK.json in step with the program.
func TestSmoke(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	all := allWorkloads()
	if len(all) < 2 || len(all) > 8 || len(endToEndMetrics) > 16 || len(driverLayerMetrics()) > 128 {
		t.Fatalf("%d workloads, %d end-to-end and %d per-layer metrics: outside 2..8 / ≤16 / ≤128",
			len(all), len(endToEndMetrics), len(driverLayerMetrics()))
	}
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range defs {
			if !name.MatchString(d.name) || seen[d.name] {
				t.Errorf("metric name %q is malformed or repeated", d.name)
			}
			seen[d.name] = true
			if d.better != "higher" && d.better != "lower" {
				t.Errorf("%s: direction %q", d.name, d.better)
			}
		}
	}
	cfg := testConfig(t, defaultSeed)
	for _, w := range all {
		if !name.MatchString(w.name) {
			t.Errorf("workload name %q is malformed", w.name)
		}
		rep, err := runWorkload(w, cfg, true, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", w.name, rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
		}
		for _, d := range endToEndMetrics {
			if v, ok := rep.EndToEnd[d.name]; !ok || v.Value <= 0 || v.Unit != d.unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive %s", w.name, d.name, v, d.unit)
			}
		}
		for _, d := range perLayerMetrics {
			v, ok := rep.PerLayer[d.name]
			if !ok || v.Unit != d.unit {
				t.Errorf("%s: per-layer metric %s missing or in %q", w.name, d.name, v.Unit)
			}
			if (d.on == nil || d.on(w)) && !d.zeroOK && v.Value <= 0 {
				t.Errorf("%s: per-layer metric %s = %v on a workload that exercises it", w.name, d.name, v.Value)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v", file.Paths)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, program default %d", file.RunSeconds, defaultSeconds)
	}
	all := allWorkloads()
	if len(file.Workloads) != len(all) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(all))
	}
	for i, w := range all {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %+v vs program %q (%d chars)", i, file.Workloads[i], w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: %+v vs program %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound > 0.25) {
				t.Errorf("%s: bound %v vs program %v", d.name, g.Bound, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	check("end-to-end", file.EndToEnd, endToEndMetrics, true)
	check("per-layer", file.PerLayer, driverLayerMetrics(), false)
	if endToEndMetrics[0].name != "setup_s" || endToEndMetrics[0].unit != "s" || endToEndMetrics[0].better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
}

// TestDeterminism runs two workloads twice with one seed and once with
// another: the counts made by the program repeat bit for bit for a seed
// and move with it.
func TestDeterminism(t *testing.T) {
	exact := []string{"lfta.probes_per_record", "lfta.transfers_per_record", "query.pass_fraction", "core.shed_fraction"}
	for _, name := range []string{"selective-where", "overload-shed"} {
		w, _ := findWorkload(name)
		run := func(seed int64) *report {
			rep, err := runWorkload(w, testConfig(t, seed), true, true)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return rep
		}
		a, b, c := run(11), run(11), run(12)
		same := func(x, y *report) bool {
			ok := x.Info["answer_rows"] == y.Info["answer_rows"] && x.Attempted == y.Attempted
			for m := range exactMetrics {
				ok = ok && x.EndToEnd[m].Value == y.EndToEnd[m].Value
			}
			for _, m := range exact {
				ok = ok && x.PerLayer[m].Value == y.PerLayer[m].Value
			}
			return ok
		}
		if !same(a, b) {
			t.Errorf("%s: two runs of seed 11 differ:\n%v %v\n%v %v", name, a.EndToEnd, a.PerLayer, b.EndToEnd, b.PerLayer)
		}
		if same(a, c) {
			t.Errorf("%s: seeds 11 and 12 gave the same counts", name)
		}
	}
}

// TestAgree checks the comparison mode on documents it makes itself.
func TestAgree(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64, seed int64) string {
		doc := document{Seed: seed, Workloads: []*report{{Name: "paper-flows", EndToEnd: map[string]value{}}}}
		for _, d := range endToEndMetrics {
			doc.Workloads[0].EndToEnd[d.name] = value{Value: 100 * scale, Unit: d.unit}
		}
		data, _ := json.Marshal(doc)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 1, 1)
	var out bytes.Buffer
	if code := agreeFiles(a, write("same.json", 1, 1), &out); code != 0 {
		t.Errorf("identical documents disagree:\n%s", out.String())
	}
	// 1% apart: inside every timed bound, but the exact counts of one seed
	// may not move at all.
	if code := agreeFiles(a, write("near.json", 1.01, 1), &out); code != 1 {
		t.Errorf("exact counts 1%% apart on one seed should disagree")
	}
	if code := agreeFiles(a, write("seed.json", 1.01, 2), &out); code != 0 {
		t.Errorf("1%% apart on different seeds should agree:\n%s", out.String())
	}
	if code := agreeFiles(a, write("far.json", 1.5, 2), &out); code != 1 {
		t.Errorf("50%% apart should disagree")
	}
}
