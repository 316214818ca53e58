// Package attr implements the attribute and relation algebra used
// throughout the multiple-aggregation optimizer.
//
// A stream relation R has a fixed schema of up to 26 grouping attributes,
// named A through Z. A "relation" in the paper's sense (a group-by query or
// a phantom) is simply a non-empty subset of those attributes; we represent
// it as a bitset. The feeding relationship of the paper is then plain set
// inclusion: relation P can feed relation C iff C ⊂ P.
package attr

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// MaxAttrs is the maximum number of grouping attributes in a schema.
const MaxAttrs = 26

// ID identifies a single attribute by its position in the schema (0 = A).
type ID uint8

// Name returns the single-letter name of the attribute ("A".."Z").
func (id ID) Name() string {
	if id >= MaxAttrs {
		return fmt.Sprintf("attr(%d)", uint8(id))
	}
	return string(rune('A' + id))
}

// Set is a set of attributes, i.e. a relation in the paper's terminology.
// The zero value is the empty set.
type Set uint32

// MakeSet builds a Set from individual attribute ids.
func MakeSet(ids ...ID) Set {
	var s Set
	for _, id := range ids {
		s |= 1 << id
	}
	return s
}

// ParseSet parses a relation name such as "ABD" into a Set. Lowercase
// letters are accepted. It returns an error on any character outside
// [A-Za-z] or on the empty string.
func ParseSet(name string) (Set, error) {
	if name == "" {
		return 0, fmt.Errorf("attr: empty relation name")
	}
	var s Set
	for _, r := range name {
		switch {
		case r >= 'A' && r <= 'Z':
			s |= 1 << (r - 'A')
		case r >= 'a' && r <= 'z':
			s |= 1 << (r - 'a')
		default:
			return 0, fmt.Errorf("attr: bad attribute %q in relation name %q", r, name)
		}
	}
	return s, nil
}

// MustParseSet is ParseSet that panics on error; intended for literals in
// tests and examples.
func MustParseSet(name string) Set {
	s, err := ParseSet(name)
	if err != nil {
		panic(err)
	}
	return s
}

// String renders the set in the paper's notation: concatenated attribute
// letters in alphabetical order, e.g. "ABD". The empty set renders as "∅".
func (s Set) String() string {
	if s == 0 {
		return "∅"
	}
	var b strings.Builder
	for id := ID(0); id < MaxAttrs; id++ {
		if s.Has(id) {
			b.WriteByte(byte('A' + id))
		}
	}
	return b.String()
}

// Has reports whether the attribute id is a member of s.
func (s Set) Has(id ID) bool { return s&(1<<id) != 0 }

// Add returns s with attribute id added.
func (s Set) Add(id ID) Set { return s | 1<<id }

// Remove returns s with attribute id removed.
func (s Set) Remove(id ID) Set { return s &^ (1 << id) }

// Union returns the union of s and t. In the feeding graph, the union of
// two queries is the minimal phantom able to feed both.
func (s Set) Union(t Set) Set { return s | t }

// Size returns the number of attributes in the set (the arity of the
// relation's group key).
func (s Set) Size() int { return bits.OnesCount32(uint32(s)) }

// IsEmpty reports whether the set has no attributes.
func (s Set) IsEmpty() bool { return s == 0 }

// SubsetOf reports whether every attribute of s is also in t (s ⊆ t).
func (s Set) SubsetOf(t Set) bool { return s&t == s }

// ProperSubsetOf reports whether s ⊂ t.
func (s Set) ProperSubsetOf(t Set) bool { return s != t && s.SubsetOf(t) }

// SupersetOf reports whether t ⊆ s. A relation can feed exactly the
// relations over proper subsets of its attributes.
func (s Set) SupersetOf(t Set) bool { return t.SubsetOf(s) }

// CanFeed reports whether a hash table for s can feed (i.e. derive the
// groups of) a table for t: t must be a proper, non-empty subset of s.
func (s Set) CanFeed(t Set) bool { return !t.IsEmpty() && t.ProperSubsetOf(s) }

// IDs returns the member attribute ids in increasing order.
func (s Set) IDs() []ID {
	ids := make([]ID, 0, s.Size())
	for rest := uint32(s); rest != 0; {
		id := ID(bits.TrailingZeros32(rest))
		ids = append(ids, id)
		rest &= rest - 1
	}
	return ids
}

// Project copies the values of s's attributes out of a full-width tuple
// (indexed by attribute id) into dst, in attribute order, and returns dst.
// If dst is nil or too small a new slice is allocated. Project is on the
// hash-table hot path and does not allocate when dst has capacity.
func (s Set) Project(tuple []uint32, dst []uint32) []uint32 {
	n := s.Size()
	if cap(dst) < n {
		dst = make([]uint32, n)
	}
	dst = dst[:n]
	i := 0
	for rest := uint32(s); rest != 0; {
		id := bits.TrailingZeros32(rest)
		dst[i] = tuple[id]
		i++
		rest &= rest - 1
	}
	return dst
}

// SortSets orders a slice of relations by decreasing size and then by
// increasing bit pattern (i.e. alphabetical name), the canonical order used
// when printing configurations and enumerating phantoms.
func SortSets(sets []Set) {
	sort.Slice(sets, func(i, j int) bool {
		if a, b := sets[i].Size(), sets[j].Size(); a != b {
			return a > b
		}
		return sets[i] < sets[j]
	})
}

// Universe returns the union of all given sets: the widest relation needed
// to feed every query in the workload.
func Universe(sets []Set) Set {
	var u Set
	for _, s := range sets {
		u |= s
	}
	return u
}

// Dedup returns sets with duplicates removed, preserving first occurrence
// order.
func Dedup(sets []Set) []Set {
	seen := make(map[Set]bool, len(sets))
	out := sets[:0:0]
	for _, s := range sets {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
