// Package feedgraph implements the paper's relation feeding graph
// (Section 2.6, Figure 4) and LFTA configurations (Section 3.1).
//
// Given user queries S_Q (each a set of grouping attributes), the feeding
// graph contains the queries plus every candidate phantom — the closure of
// S_Q under union, since a phantom that cannot feed at least two relations
// is never beneficial. A configuration is the subset of relations actually
// instantiated at the LFTA; it always includes all queries and forms a
// tree: each instantiated relation is fed by its minimal instantiated
// proper superset ("short-circuiting" intermediate nodes that were not
// chosen), or directly by the stream if none exists (a raw relation).
package feedgraph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/attr"
)

// Graph is the feeding graph of a query set.
type Graph struct {
	Queries  []attr.Set // user queries, deduplicated, canonical order
	Phantoms []attr.Set // candidate phantoms: union closure minus queries
	queries  map[attr.Set]bool
}

// New builds the feeding graph for a set of user queries.
func New(queries []attr.Set) (*Graph, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("feedgraph: need at least one query")
	}
	qs := attr.Dedup(queries)
	for _, q := range qs {
		if q.IsEmpty() {
			return nil, fmt.Errorf("feedgraph: empty query relation")
		}
	}
	attr.SortSets(qs)
	g := &Graph{Queries: qs, queries: make(map[attr.Set]bool, len(qs))}
	for _, q := range qs {
		g.queries[q] = true
	}

	// Union closure: all unions of two or more queries. Fixpoint of
	// pairwise unions starting from the queries.
	closure := make(map[attr.Set]bool, len(qs))
	for _, q := range qs {
		closure[q] = true
	}
	for changed := true; changed; {
		changed = false
		members := setsOf(closure)
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				u := members[i].Union(members[j])
				if !closure[u] {
					closure[u] = true
					changed = true
				}
			}
		}
	}
	for s := range closure {
		if !g.queries[s] {
			g.Phantoms = append(g.Phantoms, s)
		}
	}
	attr.SortSets(g.Phantoms)
	return g, nil
}

func setsOf(m map[attr.Set]bool) []attr.Set {
	out := make([]attr.Set, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	attr.SortSets(out)
	return out
}

// IsQuery reports whether rel is one of the user queries.
func (g *Graph) IsQuery(rel attr.Set) bool { return g.queries[rel] }

// Relations returns all graph nodes (queries and candidate phantoms) in
// canonical order.
func (g *Graph) Relations() []attr.Set {
	all := append(append([]attr.Set(nil), g.Phantoms...), g.Queries...)
	attr.SortSets(all)
	return all
}

// Config is a configuration: the instantiated relations (all queries plus
// the chosen phantoms) arranged as a feeding forest.
type Config struct {
	Rels     []attr.Set              // all instantiated relations, canonical order
	Queries  []attr.Set              // the user queries (always instantiated)
	parent   map[attr.Set]attr.Set   // 0 ⇒ raw (fed directly by the stream)
	children map[attr.Set][]attr.Set // feeding order, canonical
	isQuery  map[attr.Set]bool
}

// NewConfig assembles a configuration from the query set and the chosen
// phantoms. Every relation's parent is its minimal instantiated proper
// superset (ties broken toward fewer attributes, then canonical order);
// relations without an instantiated superset are raw.
func NewConfig(queries, phantoms []attr.Set) (*Config, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("feedgraph: configuration needs queries")
	}
	qs := attr.Dedup(queries)
	attr.SortSets(qs)
	isQuery := make(map[attr.Set]bool, len(qs))
	for _, q := range qs {
		if q.IsEmpty() {
			return nil, fmt.Errorf("feedgraph: empty query relation")
		}
		isQuery[q] = true
	}
	var rels []attr.Set
	rels = append(rels, qs...)
	for _, p := range attr.Dedup(phantoms) {
		if p.IsEmpty() {
			return nil, fmt.Errorf("feedgraph: empty phantom relation")
		}
		if isQuery[p] {
			continue // already instantiated as a query
		}
		rels = append(rels, p)
	}
	rels = attr.Dedup(rels)
	attr.SortSets(rels)

	cfg := &Config{
		Rels:     rels,
		Queries:  qs,
		parent:   make(map[attr.Set]attr.Set, len(rels)),
		children: make(map[attr.Set][]attr.Set, len(rels)),
		isQuery:  isQuery,
	}
	for _, r := range rels {
		best := attr.Set(0)
		for _, cand := range rels {
			if !cand.SupersetOf(r) || cand == r {
				continue
			}
			if best == 0 || cand.Size() < best.Size() || (cand.Size() == best.Size() && cand < best) {
				best = cand
			}
		}
		cfg.parent[r] = best
		if best != 0 {
			cfg.children[best] = append(cfg.children[best], r)
		}
	}
	for _, kids := range cfg.children {
		attr.SortSets(kids)
	}
	return cfg, nil
}

// Children returns the relations r feeds, in canonical order.
func (c *Config) Children(r attr.Set) []attr.Set { return c.children[r] }

// IsRaw reports whether r is fed directly by the stream.
func (c *Config) IsRaw(r attr.Set) bool { return c.parent[r] == 0 }

// IsLeaf reports whether r feeds nothing.
func (c *Config) IsLeaf(r attr.Set) bool { return len(c.children[r]) == 0 }

// IsQuery reports whether r is a user query of this configuration.
func (c *Config) IsQuery(r attr.Set) bool { return c.isQuery[r] }

// Has reports whether r is instantiated in the configuration.
func (c *Config) Has(r attr.Set) bool {
	_, ok := c.parent[r]
	return ok
}

// Phantoms returns the instantiated non-query relations, canonical order.
func (c *Config) Phantoms() []attr.Set {
	var out []attr.Set
	for _, r := range c.Rels {
		if !c.isQuery[r] {
			out = append(out, r)
		}
	}
	return out
}

// Raws returns the raw relations in canonical order.
func (c *Config) Raws() []attr.Set {
	var out []attr.Set
	for _, r := range c.Rels {
		if c.IsRaw(r) {
			out = append(out, r)
		}
	}
	return out
}

// Ancestors returns r's feeding chain from its direct parent up to its raw
// ancestor (the paper's A_R).
func (c *Config) Ancestors(r attr.Set) []attr.Set {
	var out []attr.Set
	for p := c.parent[r]; p != 0; p = c.parent[p] {
		out = append(out, p)
	}
	return out
}

// Depth returns the number of feeding levels of the configuration (1 for
// a configuration with no phantoms).
func (c *Config) Depth() int {
	max := 0
	for _, r := range c.Rels {
		if d := len(c.Ancestors(r)) + 1; d > max {
			max = d
		}
	}
	return max
}

// Validate checks structural invariants: queries instantiated, the forest
// is acyclic and consistent, and every parent is a proper superset.
func (c *Config) Validate() error {
	for _, q := range c.Queries {
		if !c.Has(q) {
			return fmt.Errorf("feedgraph: query %v not instantiated", q)
		}
	}
	for _, r := range c.Rels {
		p := c.parent[r]
		if p == 0 {
			continue
		}
		if !p.SupersetOf(r) || p == r {
			return fmt.Errorf("feedgraph: parent %v does not properly contain %v", p, r)
		}
		// Walk up; must terminate at a raw relation without revisiting.
		seen := map[attr.Set]bool{r: true}
		for q := p; q != 0; q = c.parent[q] {
			if seen[q] {
				return fmt.Errorf("feedgraph: cycle through %v", q)
			}
			seen[q] = true
		}
	}
	return nil
}

// UselessPhantoms returns instantiated phantoms that feed fewer than two
// relations in this configuration; such phantoms are never beneficial
// (Section 2.6) and greedy algorithms should not produce them.
func (c *Config) UselessPhantoms() []attr.Set {
	var out []attr.Set
	for _, r := range c.Phantoms() {
		if len(c.children[r]) < 2 {
			out = append(out, r)
		}
	}
	return out
}

// String renders the configuration in the paper's notation, e.g.
// "ABCD(AB BCD(BC BD CD))"; multiple raw relations are space-separated,
// each with its feeding subtree in parentheses. Siblings print in the
// paper's order: fewer attributes first, then alphabetically.
func (c *Config) String() string {
	raws := printOrder(c.Raws())
	parts := make([]string, len(raws))
	for i, r := range raws {
		parts[i] = c.subtreeString(r)
	}
	return strings.Join(parts, " ")
}

func (c *Config) subtreeString(r attr.Set) string {
	kids := c.children[r]
	if len(kids) == 0 {
		return r.String()
	}
	parts := make([]string, len(kids))
	for i, k := range printOrder(kids) {
		parts[i] = c.subtreeString(k)
	}
	return fmt.Sprintf("%v(%s)", r, strings.Join(parts, " "))
}

// printOrder sorts relations lexicographically by name, matching the
// paper's configuration notation (e.g. "ABC(AC(A C) B)" lists AC before B).
func printOrder(rels []attr.Set) []attr.Set {
	out := append([]attr.Set(nil), rels...)
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// ParseConfig parses the paper's configuration notation. queries names the
// user queries; if nil, the leaves of the parsed forest are taken to be
// the queries. The parsed structure must agree with the canonical
// minimal-superset parenting NewConfig computes — ParseConfig rejects
// notations whose explicit nesting contradicts it, since the paper's
// configurations are always consistent with the feeding graph.
func ParseConfig(notation string, queries []attr.Set) (*Config, error) {
	p := &parser{in: notation}
	forest, err := p.parseForest()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("feedgraph: trailing input at %d in %q", p.pos, notation)
	}
	var rels []attr.Set
	var leaves []attr.Set
	var walk func(n *node, anc []attr.Set) error
	walk = func(n *node, anc []attr.Set) error {
		for _, a := range anc {
			if !a.SupersetOf(n.rel) || a == n.rel {
				return fmt.Errorf("feedgraph: %v nested under %v, which cannot feed it", n.rel, a)
			}
		}
		rels = append(rels, n.rel)
		if len(n.children) == 0 {
			leaves = append(leaves, n.rel)
		}
		for _, ch := range n.children {
			if err := walk(ch, append(anc, n.rel)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, root := range forest {
		if err := walk(root, nil); err != nil {
			return nil, err
		}
	}
	if queries == nil {
		queries = leaves
	}
	qset := make(map[attr.Set]bool, len(queries))
	for _, q := range queries {
		qset[q] = true
	}
	var phantoms []attr.Set
	for _, r := range rels {
		if !qset[r] {
			phantoms = append(phantoms, r)
		}
	}
	cfg, err := NewConfig(queries, phantoms)
	if err != nil {
		return nil, err
	}
	// Every explicitly written relation must be instantiated.
	for _, r := range rels {
		if !cfg.Has(r) {
			return nil, fmt.Errorf("feedgraph: %v lost during canonicalization", r)
		}
	}
	return cfg, nil
}

// MustParseConfig is ParseConfig that panics on error.
func MustParseConfig(notation string, queries []attr.Set) *Config {
	c, err := ParseConfig(notation, queries)
	if err != nil {
		panic(err)
	}
	return c
}

type node struct {
	rel      attr.Set
	children []*node
}

type parser struct {
	in  string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t' || p.in[p.pos] == '\n') {
		p.pos++
	}
}

// parseForest parses one or more trees separated by spaces.
func (p *parser) parseForest() ([]*node, error) {
	var out []*node
	for {
		p.skipSpace()
		if p.pos >= len(p.in) || p.in[p.pos] == ')' {
			break
		}
		n, err := p.parseTree()
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("feedgraph: empty configuration at %d", p.pos)
	}
	return out, nil
}

// parseTree parses NAME['(' forest ')'] or '(' tree ')'.
func (p *parser) parseTree() (*node, error) {
	p.skipSpace()
	if p.pos < len(p.in) && p.in[p.pos] == '(' {
		// Redundant grouping parentheses around a tree, as in
		// "(ABCD(AB ...))".
		p.pos++
		n, err := p.parseTree()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.in) || p.in[p.pos] != ')' {
			return nil, fmt.Errorf("feedgraph: missing ')' at %d in %q", p.pos, p.in)
		}
		p.pos++
		return n, nil
	}
	start := p.pos
	for p.pos < len(p.in) && isLetter(p.in[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("feedgraph: expected relation name at %d in %q", start, p.in)
	}
	rel, err := attr.ParseSet(p.in[start:p.pos])
	if err != nil {
		return nil, err
	}
	n := &node{rel: rel}
	p.skipSpace()
	if p.pos < len(p.in) && p.in[p.pos] == '(' {
		p.pos++
		kids, err := p.parseForest()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.in) || p.in[p.pos] != ')' {
			return nil, fmt.Errorf("feedgraph: missing ')' at %d in %q", p.pos, p.in)
		}
		p.pos++
		n.children = kids
	}
	return n, nil
}

func isLetter(b byte) bool {
	return b >= 'A' && b <= 'Z' || b >= 'a' && b <= 'z'
}

// EnumerateConfigs yields every configuration obtainable by instantiating
// a subset of the graph's candidate phantoms (including the empty subset),
// in a deterministic order. It is the configuration space EPES searches.
// The callback may return false to stop early.
func (g *Graph) EnumerateConfigs(fn func(*Config) bool) error {
	ps := g.Phantoms
	if len(ps) > 20 {
		return fmt.Errorf("feedgraph: %d candidate phantoms is too many to enumerate", len(ps))
	}
	for mask := 0; mask < 1<<len(ps); mask++ {
		var chosen []attr.Set
		for i, p := range ps {
			if mask&(1<<i) != 0 {
				chosen = append(chosen, p)
			}
		}
		cfg, err := NewConfig(g.Queries, chosen)
		if err != nil {
			return err
		}
		if !fn(cfg) {
			return nil
		}
	}
	return nil
}

// GroupCounts maps each relation to its number of groups g_R. float64
// because estimators may produce fractional values.
type GroupCounts map[attr.Set]float64

// Get returns g_R, or an error if unknown.
func (gc GroupCounts) Get(r attr.Set) (float64, error) {
	g, ok := gc[r]
	if !ok {
		return 0, fmt.Errorf("feedgraph: no group count for %v", r)
	}
	return g, nil
}

// Sorted returns the relations with known counts in canonical order.
func (gc GroupCounts) Sorted() []attr.Set {
	out := make([]attr.Set, 0, len(gc))
	for r := range gc {
		out = append(out, r)
	}
	attr.SortSets(out)
	return out
}

// CheckMonotone verifies the subset-monotonicity g_R ≤ g_S for R ⊆ S that
// any consistent group-count table must satisfy.
func (gc GroupCounts) CheckMonotone() error {
	rels := gc.Sorted()
	for _, r := range rels {
		for _, s := range rels {
			if r.ProperSubsetOf(s) && gc[r] > gc[s] {
				return fmt.Errorf("feedgraph: g(%v) = %v exceeds g(%v) = %v", r, gc[r], s, gc[s])
			}
		}
	}
	return nil
}

// EntrySize returns h_R in 4-byte units for a count(*) configuration:
// one unit per grouping attribute plus one for the counter (Section 5.3).
func EntrySize(r attr.Set) int { return r.Size() + 1 }
