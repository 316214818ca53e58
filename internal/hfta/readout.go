package hfta

import (
	"math/bits"
	"slices"

	"repro/internal/attr"
)

// Sort-fold read-out. An epoch's log holds its partials in arrival order;
// the read-out orders a permutation of them by key with one stable sort
// and folds each run of equal keys, in arrival order, into one group —
// aggregation inside the sort, the sorted output being what Rows returns
// anyway. The fold writes into pooled scratch that then swaps places with
// the log, so the log is left folded: a second read-out or GroupCount
// reads it instead of sorting again. View hands out the folded log in
// place: row headers whose Key/Aggs fields are sub-slices of the log's
// own columns, in a header array the caller reuses, so a read-out
// allocates nothing. Rows is a copy of the view in exactly three
// allocations (one flat key array, one flat aggregate array, the []Row);
// nothing in it aliases the log or the scratch, so it stays valid and
// unchanged after Drop.

// readScratch is the scratch of one sort. Idle ones wait on the
// aggregator's freelist (not a sync.Pool: the collector empties those,
// and at one read-out per epoch the scratch would be rebuilt from zero
// capacity whenever two collections fit into an epoch).
type readScratch struct {
	keys           []uint32 // a fold's output (swapped with the log's columns), or buildRun's keys
	aggs           []int64
	perm, permTmp  []uint32 // entry numbers, sorted by key
	packed, pkdTmp []uint64 // each entry's key packed, moved along with perm
	count          [1<<msdBits + 1]int32
}

func (a *Aggregator) takeScratch() *readScratch {
	a.scratchMu.Lock()
	defer a.scratchMu.Unlock()
	if n := len(a.scratch); n > 0 {
		sc := a.scratch[n-1]
		a.scratch = a.scratch[:n-1]
		return sc
	}
	return &readScratch{}
}

func (a *Aggregator) putScratch(sc *readScratch) {
	a.scratchMu.Lock()
	a.scratch = append(a.scratch, sc)
	a.scratchMu.Unlock()
}

// sized returns s with length n, reallocating only when capacity is short.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Rows finalizes and returns the answers for one query and epoch, sorted
// by group key (numeric, per attribute). The rows are the caller's: the
// state for that (query, epoch) remains available, and independent of
// them, until Drop is called.
func (a *Aggregator) Rows(rel attr.Set, epoch uint32) []Row {
	l, arity := a.folded(rel, epoch)
	if l == nil {
		return nil
	}
	keys, aggs := slices.Clone(l.keys), slices.Clone(l.aggs)
	l.mu.Unlock()
	return a.rowsOf(make([]Row, 0, len(keys)/arity), rel, epoch, keys, aggs, arity)
}

// View is Rows without the copy: it finalizes one query's epoch and
// returns its answers in dst's reused header array, each row's Key and
// Aggs a sub-slice of the log's own columns. It allocates nothing once
// dst has room for the groups. The view is borrowed: it is valid until
// the epoch is dropped (Drop, Reset) or the next MergeRun into the same
// (query, epoch), and its Key/Aggs must not be written.
func (a *Aggregator) View(dst []Row, rel attr.Set, epoch uint32) []Row {
	l, arity := a.folded(rel, epoch)
	if l == nil {
		return dst[:0]
	}
	defer l.mu.Unlock()
	return a.rowsOf(dst[:0], rel, epoch, l.keys, l.aggs, arity)
}

// rowsOf appends to dst one row per group of a folded key/aggregate
// column pair, Key and Aggs capped sub-slices of the columns.
func (a *Aggregator) rowsOf(dst []Row, rel attr.Set, epoch uint32, keys []uint32, aggs []int64, arity int) []Row {
	na := len(a.aggs)
	for i := range len(keys) / arity {
		dst = append(dst, Row{Rel: rel, Epoch: epoch,
			Key:  keys[i*arity : (i+1)*arity : (i+1)*arity],
			Aggs: aggs[i*na : (i+1)*na : (i+1)*na]})
	}
	return dst
}

// folded returns a query's log of the epoch folded, with its lock held,
// and the query's arity; the log is nil if the epoch has none.
func (a *Aggregator) folded(rel attr.Set, epoch uint32) (*epochLog, int) {
	rs := a.state[rel]
	if rs == nil {
		return nil, 0
	}
	l := rs.acquire(epoch, false)
	if l != nil {
		a.fold(l, rs.arity)
	}
	return l, rs.arity
}

// fold folds the log in place: its entries become its distinct groups,
// sorted by key. The first partial of a group enters as Combine(Identity,
// d), each later one, in arrival order (the sort is stable), as
// Combine(acc, d). A key that packs is read back from the sorted packed
// column, so only the aggregates are gathered. Caller holds l.mu.
func (a *Aggregator) fold(l *epochLog, arity int) {
	if l.folded == len(l.keys)/arity {
		return
	}
	sc := a.takeScratch()
	defer a.putScratch(sc)
	sc.order(l.keys, arity)
	na := len(a.aggs)
	keys, aggs := sized(sc.keys, len(l.keys)), sized(sc.aggs, len(l.aggs))
	g := -1
	for i, x := range sc.perm {
		var same bool
		if arity <= smallArity {
			if same = i > 0 && sc.packed[i] == sc.packed[i-1]; !same {
				g++
				unpackSmall(keys[g*arity:(g+1)*arity], sc.packed[i])
			}
		} else {
			k := l.keys[int(x)*arity : int(x+1)*arity]
			if same = i > 0 && slices.Equal(k, keys[g*arity:(g+1)*arity]); !same {
				g++
				copy(keys[g*arity:], k)
			}
		}
		acc, d := aggs[g*na:(g+1)*na], l.aggs[int(x)*na:int(x+1)*na]
		for j, spec := range a.aggs {
			if !same {
				acc[j] = spec.Op.Identity()
			}
			acc[j] = spec.Op.Combine(acc[j], d[j])
		}
	}
	l.folded = g + 1
	l.keys, sc.keys = keys[:l.folded*arity], l.keys
	l.aggs, sc.aggs = aggs[:l.folded*na], l.aggs
}

// order sets sc.perm to the entries of a flat key column (arity words
// each) stably sorted by key, numeric per attribute; keys that pack leave
// their packed form, sorted, in sc.packed. It is the HFTA's one sort: the
// read-out's fold and the composer's buildRun both order through it.
func (sc *readScratch) order(keys []uint32, arity int) {
	n := len(keys) / arity
	packed := sc.load(n)
	if arity <= smallArity {
		for i := range packed {
			packed[i] = packSmall(keys[i*arity : (i+1)*arity])
		}
		sc.sort()
		return
	}
	slices.SortStableFunc(sc.perm, func(x, y uint32) int {
		return slices.Compare(keys[int(x)*arity:int(x+1)*arity], keys[int(y)*arity:int(y+1)*arity])
	})
}

// load sizes the scratch for n entries in their original order and
// returns the packed column for the caller to fill before sort.
func (sc *readScratch) load(n int) []uint64 {
	sc.perm = sized(sc.perm, n)
	for i := range sc.perm {
		sc.perm[i] = uint32(i)
	}
	sc.packed = sized(sc.packed, n)
	return sc.packed
}

// The sort kernel's shape: one most-significant-digit pass on the top
// msdBits bits that vary, then each bucket sorted on its own —
// insertion sort up to insertionMax entries, an LSD radix pass per byte
// that varies inside the bucket above that, so skewed or clustered keys
// that crowd one bucket still sort in O(n).
const (
	msdBits      = 12
	insertionMax = 48
)

// sort orders packed, and perm along with it, by packed value, stably.
func (sc *readScratch) sort() {
	keys, perm := sc.packed, sc.perm
	n := len(keys)
	varying := varyingBits(keys)
	if n <= insertionMax || varying == 0 {
		insertionSort(keys, perm)
		return
	}
	// The digit: the msdBits bits below the highest varying one (fewer
	// for small n, so buckets do not outnumber the entries).
	width := min(msdBits, bits.Len(uint(n))-2)
	kt, pt := sized(sc.pkdTmp, n), sized(sc.permTmp, n)
	lo := int32(0)
	for _, hi := range scatter(keys, perm, kt, pt, max(bits.Len64(varying)-width, 0), width, sc.count[:]) {
		if hi-lo <= insertionMax {
			insertionSort(kt[lo:hi], pt[lo:hi])
		} else {
			lsdSort(kt[lo:hi], pt[lo:hi], keys[lo:hi], perm[lo:hi])
		}
		lo = hi
	}
	sc.packed, sc.pkdTmp, sc.perm, sc.permTmp = kt, keys, pt, perm
}

// varyingBits returns the bits in which some key differs from the first.
func varyingBits(keys []uint64) uint64 {
	var v uint64
	for _, k := range keys {
		v |= k ^ keys[0]
	}
	return v
}

// scatter moves keys, and perm along with them, into kt/pt ordered by
// the width-bit digit at shift, stably, and returns the end offset of
// each digit's bucket. count needs room for 1<<width + 1 entries.
func scatter(keys []uint64, perm []uint32, kt []uint64, pt []uint32, shift, width int, count []int32) []int32 {
	mask := uint64(1)<<width - 1
	count = count[:mask+2]
	clear(count)
	for _, k := range keys {
		count[(k>>shift)&mask+1]++
	}
	for b := 1; b < len(count); b++ {
		count[b] += count[b-1]
	}
	for i, k := range keys {
		j := &count[(k>>shift)&mask]
		kt[*j], pt[*j] = k, perm[i]
		*j++
	}
	return count[:mask+1]
}

// insertionSort orders a short run of keys, and perm along with it,
// stably.
func insertionSort(keys []uint64, perm []uint32) {
	for i := 1; i < len(keys); i++ {
		k, p := keys[i], perm[i]
		j := i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j], perm[j] = keys[j-1], perm[j-1]
		}
		keys[j], perm[j] = k, p
	}
}

// lsdSort orders keys, and perm along with it, stably with one scatter
// per byte position that varies, using keysTmp/permTmp (same length) as
// the other buffer; the result ends in keys/perm.
func lsdSort(keys []uint64, perm []uint32, keysTmp []uint64, permTmp []uint32) {
	varying := varyingBits(keys)
	var count [257]int32
	src, srcP, dst, dstP := keys, perm, keysTmp, permTmp
	for shift := 0; shift < 64; shift += 8 {
		if (varying>>shift)&0xff != 0 {
			scatter(src, srcP, dst, dstP, shift, 8, count[:])
			src, srcP, dst, dstP = dst, dstP, src, srcP
		}
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
		copy(perm, srcP)
	}
}
