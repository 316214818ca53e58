package hfta

import (
	"cmp"
	"math/bits"
)

// Group keys travel as flat []uint32 words, one per attribute; the arity
// is fixed per relation and never stored with the key. Keys of arity ≤ 2
// additionally pack into one uint64 (attribute 0 in the high word) whose
// numeric order equals the per-attribute lexicographic order — the form
// the lock-shard hash and the read-out's radix sort work on.

// smallArity is the widest group key packed directly into a uint64.
const smallArity = 2

// packSmall packs a key of arity 1 or 2 into a uint64 whose numeric order
// equals the lexicographic order of the values.
func packSmall(vals []uint32) uint64 {
	if len(vals) == 1 {
		return uint64(vals[0])
	}
	return uint64(vals[0])<<32 | uint64(vals[1])
}

// packOrd is the packed bytes (PackKey) of a key of arity 1 or 2 read as
// one big-endian number, so its numeric order is the packed byte order
// that window rows, pane runs and checkpoints use.
func packOrd(key []uint32) uint64 {
	w := uint64(key[0])
	if len(key) > 1 {
		w |= uint64(key[1]) << 32
	}
	return bits.ReverseBytes64(w)
}

// cmpPacked orders two keys of one arity as their packed bytes compare.
func cmpPacked(a, b []uint32) int {
	for i := range a {
		if a[i] != b[i] {
			return cmp.Compare(bits.ReverseBytes32(a[i]), bits.ReverseBytes32(b[i]))
		}
	}
	return 0
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche mix used to
// spread packed keys across the aggregator's lock shards.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashKey is the group hash: its low bits pick the lock shard, the bits
// above them the slot in that shard's group table. A key that packs is
// mixed once; a wider one chains mix64 over its words.
func hashKey(key []uint32) uint64 {
	if len(key) <= smallArity {
		return mix64(packSmall(key))
	}
	h := uint64(len(key))
	for _, v := range key {
		h = mix64(h ^ uint64(v))
	}
	return h
}
