package hfta

import (
	"math"
	"testing"
)

// lessKeys orders decoded group keys lexicographically per attribute — the
// canonical row order of Rows and AllRows, and the order the brute-force
// read-out oracle (readout_test.go) sorts by.
func lessKeys(a, b []uint32) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func TestKeyCodecDistinct(t *testing.T) {
	// Distinct keys must pack to distinct sort keys (injectivity), including
	// pairs that collided under naive packings: (0,1) vs (1,0) and values
	// straddling the 32-bit word boundary. (Wider keys are never packed; the
	// read-out suite round-trips them through the store.)
	pairs := [][2][]uint32{
		{{0, 1}, {1, 0}},
		{{0, math.MaxUint32}, {1, 0}},
		{{math.MaxUint32, 0}, {0, math.MaxUint32}},
	}
	for _, p := range pairs {
		if a, b := p[0], p[1]; packSmall(a) == packSmall(b) {
			t.Errorf("packSmall(%v) == packSmall(%v)", a, b)
		}
	}
}

func TestKeyOrderMatchesLexicographic(t *testing.T) {
	// packSmall's numeric order must equal lessKeys' lexicographic order,
	// since Rows sorts decoded keys but the old string codec sorted byte-
	// wise; 256 vs 1 is exactly the case little-endian byte order got wrong.
	cases := [][2][]uint32{
		{{1}, {256}},
		{{255}, {256}},
		{{0, math.MaxUint32}, {1, 0}},
		{{7, 8}, {7, 9}},
	}
	for _, c := range cases {
		lo, hi := c[0], c[1]
		if !lessKeys(lo, hi) {
			t.Errorf("lessKeys(%v, %v) = false", lo, hi)
		}
		if packSmall(lo) >= packSmall(hi) {
			t.Errorf("packSmall order disagrees for %v < %v", lo, hi)
		}
	}
}
