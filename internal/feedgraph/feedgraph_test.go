package feedgraph

import (
	"testing"

	"repro/internal/attr"
)

func sets(names ...string) []attr.Set {
	out := make([]attr.Set, len(names))
	for i, n := range names {
		out[i] = attr.MustParseSet(n)
	}
	return out
}

// TestGraphFigure4 reproduces the feeding graph of Figure 4: queries
// {AB, BC, BD, CD} induce candidate phantoms {ABC, ABD, BCD, ABCD}.
func TestGraphFigure4(t *testing.T) {
	g, err := New(sets("AB", "BC", "BD", "CD"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[attr.Set]bool{
		attr.MustParseSet("ABC"):  true,
		attr.MustParseSet("ABD"):  true,
		attr.MustParseSet("BCD"):  true,
		attr.MustParseSet("ABCD"): true,
	}
	if len(g.Phantoms) != len(want) {
		t.Fatalf("phantoms = %v; want 4", g.Phantoms)
	}
	for _, p := range g.Phantoms {
		if !want[p] {
			t.Errorf("unexpected phantom %v", p)
		}
		if g.IsQuery(p) {
			t.Errorf("classification of %v wrong", p)
		}
	}
	if !g.IsQuery(attr.MustParseSet("AB")) {
		t.Error("AB must be a query")
	}
}

// TestGraphSingletons: queries {A,B,C,D} induce all 11 subsets of size ≥ 2.
func TestGraphSingletons(t *testing.T) {
	g, err := New(sets("A", "B", "C", "D"))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Phantoms) != 11 {
		t.Errorf("phantoms = %d; want 11 (all subsets of ABCD with ≥2 attrs)", len(g.Phantoms))
	}
}

func TestGraphValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty query set accepted")
	}
	if _, err := New([]attr.Set{0}); err == nil {
		t.Error("empty relation accepted")
	}
	// Duplicates collapse.
	g, err := New(sets("AB", "AB", "BC"))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Queries) != 2 {
		t.Errorf("Queries = %v; want deduplicated", g.Queries)
	}
}

// TestConfigFigure3 builds the three configurations of Figure 3 and
// checks raw/leaf classification the paper describes in Section 3.1.
func TestConfigFigure3(t *testing.T) {
	queries := sets("AB", "BC", "BD", "CD")

	// (a): phantom ABC feeding AB, BC; BD and CD raw.
	a, err := NewConfig(queries, sets("ABC"))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.String(); got != "ABC(AB BC) BD CD" {
		t.Errorf("config (a) = %q", got)
	}
	wantRaw := map[string]bool{"ABC": true, "BD": true, "CD": true}
	for _, r := range a.Raws() {
		if !wantRaw[r.String()] {
			t.Errorf("unexpected raw %v in (a)", r)
		}
	}
	// BD and CD are both raw and leaf (the paper calls this out).
	bd := attr.MustParseSet("BD")
	if !a.IsRaw(bd) || !a.IsLeaf(bd) {
		t.Error("BD must be both raw and leaf in (a)")
	}
	leaves := 0
	for _, r := range a.Rels {
		if a.IsLeaf(r) {
			leaves++
		}
	}
	if leaves != 4 {
		t.Errorf("%d leaves; want the 4 queries", leaves)
	}

	// (b): phantom BCD feeding BC, BD, CD; AB raw.
	b, err := NewConfig(queries, sets("BCD"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "AB BCD(BC BD CD)" {
		t.Errorf("config (b) = %q", got)
	}

	// (c): ABCD feeds AB and BCD; BCD feeds BC, BD, CD.
	c, err := NewConfig(queries, sets("ABCD", "BCD"))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.String(); got != "ABCD(AB BCD(BC BD CD))" {
		t.Errorf("config (c) = %q", got)
	}
	if raws := c.Raws(); len(raws) != 1 || raws[0] != attr.MustParseSet("ABCD") {
		t.Errorf("raws of (c) = %v; want only ABCD", raws)
	}
	if c.Depth() != 3 {
		t.Errorf("depth of (c) = %d; want 3", c.Depth())
	}
	// Ancestors of BC in (c): BCD then ABCD.
	anc := c.Ancestors(attr.MustParseSet("BC"))
	if len(anc) != 2 || anc[0] != attr.MustParseSet("BCD") || anc[1] != attr.MustParseSet("ABCD") {
		t.Errorf("Ancestors(BC) = %v", anc)
	}
	for _, cfg := range []*Config{a, b, c} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate: %v", err)
		}
		if got := cfg.UselessPhantoms(); len(got) != 0 {
			t.Errorf("useless phantoms: %v", got)
		}
	}
}

func TestConfigNoPhantoms(t *testing.T) {
	cfg, err := NewConfig(sets("A", "B", "C"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Depth() != 1 {
		t.Errorf("depth = %d", cfg.Depth())
	}
	for _, r := range cfg.Rels {
		if !cfg.IsRaw(r) || !cfg.IsLeaf(r) {
			t.Errorf("%v should be raw and leaf", r)
		}
	}
	if got := cfg.String(); got != "A B C" {
		t.Errorf("String = %q", got)
	}
}

func TestUselessPhantomDetection(t *testing.T) {
	// ABC above only query AB feeds one relation: useless.
	cfg, err := NewConfig(sets("AB"), sets("ABC"))
	if err != nil {
		t.Fatal(err)
	}
	u := cfg.UselessPhantoms()
	if len(u) != 1 || u[0] != attr.MustParseSet("ABC") {
		t.Errorf("UselessPhantoms = %v", u)
	}
}

func TestQueryFedByQuery(t *testing.T) {
	// AB is a query that also feeds query A: queries need not be leaves,
	// but leaves are always queries.
	cfg, err := NewConfig(sets("A", "AB"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ab := attr.MustParseSet("AB")
	if cfg.IsLeaf(ab) {
		t.Error("AB should feed A")
	}
	for _, l := range cfg.Rels {
		if cfg.IsLeaf(l) && !cfg.IsQuery(l) {
			t.Errorf("leaf %v is not a query", l)
		}
	}
}

func TestParseConfig(t *testing.T) {
	queries := sets("AB", "BC", "BD", "CD")
	for _, notation := range []string{
		"(ABCD(AB BCD(BC BD CD)))",
		"ABCD(AB BCD(BC BD CD))",
		"AB(A B) CD(C D)",
		"(ABC(AC(A C) B))",
		"(ABCD(ABC(A BC(B C)) D))",
		"A B C",
	} {
		cfg, err := ParseConfig(notation, nil)
		if err != nil {
			t.Errorf("ParseConfig(%q): %v", notation, err)
			continue
		}
		// Round trip: printing and re-parsing yields the same structure.
		again, err := ParseConfig(cfg.String(), nil)
		if err != nil {
			t.Errorf("re-parse of %q (printed %q): %v", notation, cfg.String(), err)
			continue
		}
		if again.String() != cfg.String() {
			t.Errorf("round trip %q -> %q -> %q", notation, cfg.String(), again.String())
		}
	}
	// With an explicit query set, interior queries are preserved.
	cfg, err := ParseConfig("ABCD(AB BCD(BC BD CD))", queries)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.IsQuery(attr.MustParseSet("AB")) || cfg.IsQuery(attr.MustParseSet("BCD")) {
		t.Error("query classification after parse is wrong")
	}
}

func TestParseConfigErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"(",
		"AB(",
		"AB(A",
		"AB)",
		"A1",
		"AB(CD)",         // CD not a subset of AB
		"AB(A B) extra(", // trailing garbage
	} {
		if _, err := ParseConfig(bad, nil); err == nil {
			t.Errorf("ParseConfig(%q) succeeded; want error", bad)
		}
	}
}

func TestEnumerateConfigs(t *testing.T) {
	g, err := New(sets("AB", "BC", "BD", "CD"))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	seen := map[string]bool{}
	if err := g.EnumerateConfigs(func(c *Config) bool {
		count++
		s := c.String()
		if seen[s] {
			t.Errorf("duplicate configuration %q", s)
		}
		seen[s] = true
		if err := c.Validate(); err != nil {
			t.Errorf("invalid enumerated config %q: %v", s, err)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 16 { // 2^4 phantom subsets
		t.Errorf("enumerated %d configs; want 16", count)
	}
	// Early stop.
	n := 0
	g.EnumerateConfigs(func(*Config) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestGroupCounts(t *testing.T) {
	gc := GroupCounts{
		attr.MustParseSet("A"):  552,
		attr.MustParseSet("AB"): 1846,
	}
	if _, err := gc.Get(attr.MustParseSet("A")); err != nil {
		t.Error(err)
	}
	if _, err := gc.Get(attr.MustParseSet("Z")); err == nil {
		t.Error("unknown relation accepted")
	}
	if err := gc.CheckMonotone(); err != nil {
		t.Errorf("monotone table rejected: %v", err)
	}
	gc[attr.MustParseSet("A")] = 5000
	if err := gc.CheckMonotone(); err == nil {
		t.Error("non-monotone table accepted")
	}
}

func TestEntrySize(t *testing.T) {
	// Paper: bucket for A is 8 bytes (2 units); for ABCD, 20 bytes (5).
	if EntrySize(attr.MustParseSet("A")) != 2 {
		t.Error("EntrySize(A) != 2")
	}
	if EntrySize(attr.MustParseSet("ABCD")) != 5 {
		t.Error("EntrySize(ABCD) != 5")
	}
}

func TestConfigPhantomEqualToQueryIgnored(t *testing.T) {
	cfg, err := NewConfig(sets("AB", "BC"), sets("AB", "ABC"))
	if err != nil {
		t.Fatal(err)
	}
	// AB stays a query; only ABC is a phantom.
	if ps := cfg.Phantoms(); len(ps) != 1 || ps[0] != attr.MustParseSet("ABC") {
		t.Errorf("Phantoms = %v", ps)
	}
}
