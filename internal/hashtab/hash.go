package hashtab

import "math/bits"

// Word-at-a-time key hashing. The tables' previous hash was a byte-wise
// 64-bit FNV-1a: four multiplies per 4-byte attribute word plus a final
// avalanche, all on the probe hot path (the paper's c1 operation). The
// kernel here consumes the key in 64-bit chunks — two attribute words
// packed per chunk — and runs one splitmix64 round per chunk: two
// multiplies per 8 bytes instead of eight, with the same full-avalanche
// quality (validated against the binomial occupancy model in package
// tests, which gate the paper's random-hash assumption).
//
// Bucket reduction uses Lemire's fastrange instead of a modulo: the
// space allocator hands tables arbitrary bucket counts (not powers of
// two), so masking is not an option, and a 64-bit division costs more
// than the whole hash. fastrange maps a uniform 64-bit hash h to
// ⌊h·b / 2^64⌋ — a single widening multiply — and preserves uniformity:
// each bucket receives either ⌊2^64/b⌋ or ⌈2^64/b⌉ of the 2^64 hash
// values, a relative bias of at most b/2^64 (≈ 10^-15 for the largest
// tables the allocator produces), far below what the collision model's
// binomial approximation can resolve.

// hashGamma is the splitmix64 increment; it also seeds the key length
// into the initial state so keys that differ only by trailing zero
// words hash differently.
const hashGamma = 0x9e3779b97f4a7c15

// mixWord folds one 64-bit chunk into the running state with a full
// splitmix64 round (the output permutation applied to state + chunk).
func mixWord(h, w uint64) uint64 {
	x := h + w + hashGamma
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashWords mixes the 4-byte words of key with seed, word-at-a-time.
// It is the one shared mixing kernel of the system: table probes
// (Table.hash specializes it per arity), shard routing (through its
// columnar twin HashColumnsSel), and any other consumer that must agree
// with the tables' random-hash behaviour.
func HashWords(seed uint64, key []uint32) uint64 {
	h := seed ^ hashGamma*uint64(len(key))
	i := 0
	for ; i+2 <= len(key); i += 2 {
		h = mixWord(h, uint64(key[i])|uint64(key[i+1])<<32)
	}
	if i < len(key) {
		h = mixWord(h, uint64(key[i]))
	}
	return h
}

// Reduce maps a 64-bit hash onto [0, n) by fastrange. n must be
// positive.
func Reduce(h uint64, n int) int {
	hi, _ := bits.Mul64(h, uint64(n))
	return int(hi)
}

// tagOf derives a slot's 8-bit fingerprint from the hash. The tag must
// come from the LOW hash bits: fastrange consumes the high bits for the
// group index, so keys sharing a group share their top ~log2(ngroups)
// bits and a high-bit tag would be constant within a group. The top tag
// bit is always set so a stored tag is never 0 (the reserved empty-slot
// marker) and never tagDisabled (0x01, the pad-lane marker of a partial
// final group) — leaving 7 bits of discrimination (a 1/128
// false-positive rate per co-resident lane, resolved by the key
// compare). Bits 8-11, untouched by either consumer, pick the victim
// lane when a full group evicts (Table.victimSlot).
func tagOf(h uint64) uint8 {
	return uint8(h) | 0x80
}

// hashGamma·len, wrapped mod 2^64 (the constant products overflow
// untyped arithmetic): the per-arity initial states of Table.hash and
// the columnar hash kernels (columns_sel.go), which must produce hashes
// bit-identical to HashWords.
const (
	gamma1 = hashGamma
	gamma2 = 0x3c6ef372fe94f82a
	gamma3 = 0xdaa66d2c7ddf743f
	gamma4 = 0x78dde6e5fd29f054
)

// hash mixes the key with the table seed: HashWords unrolled for the
// arities the paper's workloads probe (1-4 attributes). The results are
// bit-identical to HashWords(t.seed, key) — TestHashMatchesHashWords
// holds the specializations to that.
func (t *Table) hash(key []uint32) uint64 {
	switch len(key) {
	case 1:
		return mixWord(t.seed^gamma1, uint64(key[0]))
	case 2:
		return mixWord(t.seed^gamma2, uint64(key[0])|uint64(key[1])<<32)
	case 3:
		h := mixWord(t.seed^gamma3, uint64(key[0])|uint64(key[1])<<32)
		return mixWord(h, uint64(key[2]))
	case 4:
		h := mixWord(t.seed^gamma4, uint64(key[0])|uint64(key[1])<<32)
		return mixWord(h, uint64(key[2])|uint64(key[3])<<32)
	default:
		return HashWords(t.seed, key)
	}
}

// Bucket returns the key's hash image in slot space [0, b): the slot a
// one-slot-per-bucket table would probe. Placement is group-granular
// (fastrange over ngroups — Bucket/GroupSlots when b is a multiple of
// GroupSlots), but Bucket remains the uniformity and seed-independence
// witness the hash-quality tests check.
func (t *Table) Bucket(key []uint32) int {
	return Reduce(t.hash(key), t.b)
}
