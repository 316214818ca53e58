package hfta

// Group keys travel as flat []uint32 words, one per attribute; the arity
// is fixed per relation and never stored with the key. Keys of arity ≤ 2
// additionally pack into one uint64 (attribute 0 in the high word) whose
// numeric order equals the per-attribute lexicographic order — the form
// the key hash and the read-out's sort work on. That order, numeric per
// attribute, is the HFTA's only key order: read-out rows, pane runs,
// window rows and checkpoint panes all list groups in it.

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

// unpackSmall is packSmall's inverse: it writes the len(key) ≤ 2 values
// packed into p.
func unpackSmall(key []uint32, p uint64) {
	if len(key) == 1 {
		key[0] = uint32(p)
		return
	}
	key[0], key[1] = uint32(p>>32), uint32(p)
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche mix used to
// spread packed keys across a KeyIndex's slots.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashKey is the group hash of a KeyIndex: its low bits pick the slot. A
// key that packs is mixed once; a wider one chains mix64 over its words.
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
