// Command magggen generates workload traces for the engine and the
// experiment harness.
//
// Usage:
//
//	magggen -kind paper -out trace.magt
//	magggen -kind uniform -attrs 4 -groups 2837 -n 1000000 -out u.magt
//	magggen -kind flows -attrs 4 -groups 500 -n 100000 -mean-flow 20 -out f.magt
//
// Kinds: "paper" (the surrogate of the paper's 860k-record tcpdump
// capture), "uniform" (random draws from a fresh group universe), "flows"
// (clustered netflow-like trace), "zipf" (skewed group popularity).
// The trace is written in the binary trace format (package stream), the
// one maggd reads.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/gen"
	"repro/internal/stream"
)

func main() {
	var (
		kind     = flag.String("kind", "uniform", "paper | uniform | flows | zipf")
		out      = flag.String("out", "", "output file (required)")
		seed     = flag.Int64("seed", 42, "generator seed")
		attrs    = flag.Int("attrs", 4, "number of grouping attributes")
		groups   = flag.Int("groups", 2837, "distinct full-width groups")
		n        = flag.Int("n", 1000000, "records to generate")
		duration = flag.Uint("duration", 62, "trace duration in seconds")
		meanFlow = flag.Float64("mean-flow", 20, "mean packets per flow (flows kind)")
		skew     = flag.Float64("skew", 1.5, "zipf exponent (zipf kind)")
		pool     = flag.Uint("pool", 0, "per-attribute value pool (0 = unbounded)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "magggen: -out is required")
		flag.Usage()
		os.Exit(2)
	}

	schema, recs, err := generate(*kind, *seed, *attrs, *groups, *n, uint32(*duration), *meanFlow, *skew, uint32(*pool))
	if err != nil {
		fmt.Fprintf(os.Stderr, "magggen: %v\n", err)
		os.Exit(1)
	}

	if err := stream.WriteTraceFile(*out, schema, recs); err != nil {
		fmt.Fprintf(os.Stderr, "magggen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d records (%d attributes) to %s\n", len(recs), schema.NumAttrs, *out)
}

func generate(kind string, seed int64, attrs, groups, n int, duration uint32, meanFlow, skew float64, pool uint32) (stream.Schema, []stream.Record, error) {
	rng := rand.New(rand.NewSource(seed))
	schema, err := stream.NewSchema(attrs)
	if err != nil {
		return stream.Schema{}, nil, err
	}
	switch kind {
	case "paper":
		_, ft, err := gen.PaperTrace(seed)
		if err != nil {
			return stream.Schema{}, nil, err
		}
		return ft.Schema, ft.Records, nil
	case "uniform":
		u, err := gen.UniformUniverse(rng, schema, groups, pool)
		if err != nil {
			return stream.Schema{}, nil, err
		}
		return schema, gen.Uniform(rng, u, n, duration), nil
	case "flows":
		u, err := gen.UniformUniverse(rng, schema, groups, pool)
		if err != nil {
			return stream.Schema{}, nil, err
		}
		ft, err := gen.Flows(rng, u, gen.FlowConfig{
			NumRecords:  n,
			Duration:    duration,
			MeanFlowLen: meanFlow,
			Concurrency: 64,
		})
		if err != nil {
			return stream.Schema{}, nil, err
		}
		return schema, ft.Records, nil
	case "zipf":
		u, err := gen.UniformUniverse(rng, schema, groups, pool)
		if err != nil {
			return stream.Schema{}, nil, err
		}
		recs, err := gen.Zipf(rng, u, n, duration, skew)
		if err != nil {
			return stream.Schema{}, nil, err
		}
		return schema, recs, nil
	default:
		return stream.Schema{}, nil, fmt.Errorf("unknown kind %q", kind)
	}
}
