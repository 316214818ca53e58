package feedgraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/attr"
)

// randomQueries draws 1-5 distinct non-empty relations over 5 attributes.
func randomQueries(rng *rand.Rand) []attr.Set {
	n := 1 + rng.Intn(5)
	seen := map[attr.Set]bool{}
	var out []attr.Set
	for len(out) < n {
		q := attr.Set(rng.Intn(31) + 1)
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// TestGraphClosureProperty: every candidate phantom is a union of queries
// that (i) is not itself a query and (ii) contains at least two queries as
// proper subsets or equals their union — i.e. it can feed ≥ 2 relations
// of the graph.
func TestGraphClosureProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		queries := randomQueries(rng)
		g, err := New(queries)
		if err != nil {
			t.Fatal(err)
		}
		for _, ph := range g.Phantoms {
			if g.IsQuery(ph) {
				t.Fatalf("trial %d: phantom %v is a query", trial, ph)
			}
			// Closure property: ph must be expressible as the union of
			// the queries it contains.
			var union attr.Set
			contained := 0
			for _, q := range g.Queries {
				if q.ProperSubsetOf(ph) || q == ph {
					union = union.Union(q)
					contained++
				}
			}
			if union != ph {
				t.Fatalf("trial %d: phantom %v is not the union of its contained queries (%v)", trial, ph, union)
			}
			if contained < 2 {
				t.Fatalf("trial %d: phantom %v contains only %d queries", trial, ph, contained)
			}
		}
	}
}

// TestConfigParentMinimalityProperty: in every random configuration, each
// relation's parent is a minimal instantiated proper superset.
func TestConfigParentMinimalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		queries := randomQueries(rng)
		g, err := New(queries)
		if err != nil {
			t.Fatal(err)
		}
		var phantoms []attr.Set
		for _, ph := range g.Phantoms {
			if rng.Intn(2) == 0 {
				phantoms = append(phantoms, ph)
			}
		}
		cfg, err := NewConfig(queries, phantoms)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, r := range cfg.Rels {
			p := cfg.parent[r]
			if p == 0 {
				// Raw: no instantiated proper superset may exist.
				for _, s := range cfg.Rels {
					if s.SupersetOf(r) && s != r {
						t.Fatalf("trial %d: %v is raw but %v contains it", trial, r, s)
					}
				}
				continue
			}
			// Minimality: no instantiated relation strictly between.
			for _, s := range cfg.Rels {
				if s != r && s != p && s.SupersetOf(r) && p.SupersetOf(s) {
					t.Fatalf("trial %d: %v's parent %v skips %v", trial, r, p, s)
				}
			}
		}
	}
}

// TestConfigPrintParseProperty: printing and re-parsing any random
// configuration is the identity on structure.
func TestConfigPrintParseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		queries := randomQueries(rng)
		g, err := New(queries)
		if err != nil {
			t.Fatal(err)
		}
		var phantoms []attr.Set
		for _, ph := range g.Phantoms {
			if rng.Intn(3) == 0 {
				phantoms = append(phantoms, ph)
			}
		}
		cfg, err := NewConfig(queries, phantoms)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ParseConfig(cfg.String(), queries)
		if err != nil {
			t.Fatalf("trial %d: re-parse %q: %v", trial, cfg.String(), err)
		}
		if again.String() != cfg.String() {
			t.Fatalf("trial %d: %q -> %q", trial, cfg.String(), again.String())
		}
		for _, r := range cfg.Rels {
			if again.parent[r] != cfg.parent[r] {
				t.Fatalf("trial %d: parent of %v changed across round trip", trial, r)
			}
			if again.IsQuery(r) != cfg.IsQuery(r) {
				t.Fatalf("trial %d: query flag of %v changed across round trip", trial, r)
			}
		}
	}
}

// TestAncestorChainProperty: ancestors are strictly increasing supersets
// ending at a raw relation.
func TestAncestorChainProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		queries := randomQueries(rng)
		g, err := New(queries)
		if err != nil {
			return false
		}
		cfg, err := NewConfig(queries, g.Phantoms) // instantiate everything
		if err != nil {
			return false
		}
		for _, r := range cfg.Rels {
			anc := cfg.Ancestors(r)
			prev := r
			for _, a := range anc {
				if !a.SupersetOf(prev) || a == prev {
					return false
				}
				prev = a
			}
			if len(anc) > 0 && !cfg.IsRaw(anc[len(anc)-1]) {
				return false
			}
			if len(anc) == 0 && !cfg.IsRaw(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
