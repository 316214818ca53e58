package hashtab

import "repro/internal/attr"

// HashColumns writes HashWords(seed, row i) for every row of a
// column-major key block into out: cols is one slice per key word, all
// of length len(out). It is the columnar twin of HashWords — same pair
// packing, same per-arity initial states — so consumers that route on
// record-major hashes (shard partitioning) and consumers that route on
// columns agree bit-for-bit.
func HashColumns(seed uint64, cols [][]uint32, out []uint64) {
	n := len(out)
	if n == 0 {
		return
	}
	switch len(cols) {
	case 1:
		c0 := cols[0][:n]
		init := seed ^ gamma1
		for i := range out {
			out[i] = mixWord(init, uint64(c0[i]))
		}
	case 2:
		c0, c1 := cols[0][:n], cols[1][:n]
		init := seed ^ gamma2
		for i := range out {
			out[i] = mixWord(init, uint64(c0[i])|uint64(c1[i])<<32)
		}
	case 3:
		c0, c1, c2 := cols[0][:n], cols[1][:n], cols[2][:n]
		init := seed ^ gamma3
		for i := range out {
			h := mixWord(init, uint64(c0[i])|uint64(c1[i])<<32)
			out[i] = mixWord(h, uint64(c2[i]))
		}
	case 4:
		c0, c1, c2, c3 := cols[0][:n], cols[1][:n], cols[2][:n], cols[3][:n]
		init := seed ^ gamma4
		for i := range out {
			h := mixWord(init, uint64(c0[i])|uint64(c1[i])<<32)
			out[i] = mixWord(h, uint64(c2[i])|uint64(c3[i])<<32)
		}
	default:
		var kbuf [attr.MaxAttrs]uint32
		a := len(cols)
		for i := range out {
			for j := 0; j < a; j++ {
				kbuf[j] = cols[j][i]
			}
			out[i] = HashWords(seed, kbuf[:a:a])
		}
	}
}
