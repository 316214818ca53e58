package attr

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestParseSet(t *testing.T) {
	cases := []struct {
		in   string
		want Set
		ok   bool
	}{
		{"A", MakeSet(0), true},
		{"AB", MakeSet(0, 1), true},
		{"BA", MakeSet(0, 1), true}, // order-insensitive
		{"abd", MakeSet(0, 1, 3), true},
		{"ABCD", MakeSet(0, 1, 2, 3), true},
		{"Z", MakeSet(25), true},
		{"AA", MakeSet(0), true}, // duplicates collapse
		{"", 0, false},
		{"A1", 0, false},
		{"A B", 0, false},
	}
	for _, c := range cases {
		got, err := ParseSet(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseSet(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseSet(%q) succeeded; want error", c.in)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, name := range []string{"A", "AB", "BD", "ABCD", "ACZ"} {
		s := MustParseSet(name)
		if got := s.String(); got != name {
			t.Errorf("MustParseSet(%q).String() = %q", name, got)
		}
	}
	if got := Set(0).String(); got != "∅" {
		t.Errorf("empty set String() = %q", got)
	}
}

func TestMustParseSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseSet on invalid input did not panic")
		}
	}()
	MustParseSet("not-a-relation!")
}

func TestSetOps(t *testing.T) {
	ab := MustParseSet("AB")
	bc := MustParseSet("BC")
	abc := MustParseSet("ABC")

	if got := ab.Union(bc); got != abc {
		t.Errorf("AB ∪ BC = %v; want ABC", got)
	}
	if !ab.ProperSubsetOf(abc) || abc.ProperSubsetOf(ab) {
		t.Error("proper subset relation wrong for AB ⊂ ABC")
	}
	if ab.ProperSubsetOf(ab) {
		t.Error("a set must not be a proper subset of itself")
	}
	if !abc.CanFeed(ab) {
		t.Error("ABC should feed AB")
	}
	if abc.CanFeed(abc) {
		t.Error("a relation must not feed itself")
	}
	if abc.CanFeed(0) {
		t.Error("nothing feeds the empty relation")
	}
	if ab.CanFeed(bc) {
		t.Error("AB must not feed BC (not a subset)")
	}
}

func TestAddRemoveHas(t *testing.T) {
	var s Set
	s = s.Add(2).Add(5)
	if !s.Has(2) || !s.Has(5) || s.Has(0) {
		t.Fatalf("membership wrong after Add: %v", s)
	}
	s = s.Remove(2)
	if s.Has(2) || !s.Has(5) {
		t.Fatalf("membership wrong after Remove: %v", s)
	}
	if s.Size() != 1 {
		t.Fatalf("Size = %d; want 1", s.Size())
	}
}

func TestIDsAndProject(t *testing.T) {
	s := MustParseSet("ACD")
	ids := s.IDs()
	want := []ID{0, 2, 3}
	if len(ids) != len(want) {
		t.Fatalf("IDs() = %v; want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs() = %v; want %v", ids, want)
		}
	}

	tuple := []uint32{10, 11, 12, 13}
	got := s.Project(tuple, nil)
	wantVals := []uint32{10, 12, 13}
	for i := range wantVals {
		if got[i] != wantVals[i] {
			t.Fatalf("Project = %v; want %v", got, wantVals)
		}
	}

	// Reuse of dst must not allocate and must overwrite.
	buf := make([]uint32, 0, 8)
	got2 := s.Project(tuple, buf)
	if &got2[0] != &buf[:1][0] {
		t.Error("Project did not reuse provided buffer")
	}
}

func TestUniverseAndDedup(t *testing.T) {
	sets := []Set{MustParseSet("AB"), MustParseSet("BC"), MustParseSet("AB")}
	if got := Universe(sets); got != MustParseSet("ABC") {
		t.Errorf("Universe = %v; want ABC", got)
	}
	d := Dedup(sets)
	if len(d) != 2 || d[0] != MustParseSet("AB") || d[1] != MustParseSet("BC") {
		t.Errorf("Dedup = %v", d)
	}
}

func TestSortSets(t *testing.T) {
	sets := []Set{
		MustParseSet("B"),
		MustParseSet("ABCD"),
		MustParseSet("AC"),
		MustParseSet("AB"),
	}
	SortSets(sets)
	want := []string{"ABCD", "AB", "AC", "B"}
	for i, w := range want {
		if sets[i].String() != w {
			t.Fatalf("SortSets order = %v; want %v", sets, want)
		}
	}
}

// Property: union is commutative, associative, monotone in size, and
// subset relations behave like bit algebra predicts.
func TestSetAlgebraProperties(t *testing.T) {
	f := func(a, b, c uint32) bool {
		const mask = 1<<MaxAttrs - 1
		x, y, z := Set(a&mask), Set(b&mask), Set(c&mask)
		if x.Union(y) != y.Union(x) {
			return false
		}
		if x.Union(y.Union(z)) != x.Union(y).Union(z) {
			return false
		}
		if !x.SubsetOf(x.Union(y)) {
			return false
		}
		if x.Union(y).Size() > x.Size()+y.Size() {
			return false
		}
		if (x & y).Size() != x.Size()+y.Size()-x.Union(y).Size() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: IDs() agrees with Has() and Size(), and Project pulls exactly
// those positions.
func TestIDsProperty(t *testing.T) {
	f := func(raw uint32) bool {
		const mask = 1<<MaxAttrs - 1
		s := Set(raw & mask)
		ids := s.IDs()
		if len(ids) != s.Size() {
			return false
		}
		for i, id := range ids {
			if !s.Has(id) {
				return false
			}
			if i > 0 && ids[i-1] >= id {
				return false // must be strictly increasing
			}
		}
		if s.Size() != bits.OnesCount32(uint32(s)) {
			return false
		}
		tuple := make([]uint32, MaxAttrs)
		for i := range tuple {
			tuple[i] = uint32(i * 7)
		}
		proj := s.Project(tuple, nil)
		for i, id := range ids {
			if proj[i] != tuple[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
