package hfta

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/attr"
	"repro/internal/hashtab"
	"repro/internal/lfta"
	"repro/internal/sketch"
)

// refComposer is the brute-force reference FuzzComposer holds the
// composer to: panes as maps keyed by packed key, every window re-folded
// from them and listed in numeric key order (sortedMapKeys) — the
// map-keyed composer's semantics, with no run, pooling or caching of its
// own.
type refComposer struct {
	win     WindowSpec
	queries []attr.Set
	aggs    []lfta.AggSpec
	saggs   []sketch.Agg
	prec    uint8
	panes   map[uint32]*refPane
	next    int64
}

type refPane struct {
	stats PaneStats
	rows  map[attr.Set]map[string][]int64
	sk    map[attr.Set]map[string][]byte
}

func (r *refComposer) closePane(epoch uint32, stats PaneStats, inputs []PaneInput) {
	if int64(epoch) < r.win.start(r.next) {
		return
	}
	p := r.panes[epoch]
	if p == nil {
		p = &refPane{rows: map[attr.Set]map[string][]int64{}, sk: map[attr.Set]map[string][]byte{}}
		for _, q := range r.queries {
			p.rows[q], p.sk[q] = map[string][]int64{}, map[string][]byte{}
		}
		r.panes[epoch] = p
	}
	p.stats.add(stats)
	for _, in := range inputs {
		rows, sk := p.rows[in.Rel], p.sk[in.Rel]
		if rows == nil {
			continue
		}
		for _, row := range in.Rows {
			if len(row.Key) != in.Rel.Size() {
				continue
			}
			k := PackKey(row.Key)
			if acc, ok := rows[k]; ok {
				acc = slices.Clone(acc)
				for j, spec := range r.aggs {
					acc[j] = spec.Op.Combine(acc[j], row.Aggs[j])
				}
				rows[k] = acc
			} else {
				rows[k] = slices.Clone(row.Aggs)
			}
		}
		var blobs []KeyBlob
		for k, b := range in.Sketches {
			blobs = append(blobs, KeyBlob{UnpackKey(k), b})
		}
		for _, kb := range append(blobs, in.Blobs...) {
			if len(kb.Key) != in.Rel.Size() {
				continue
			}
			k := PackKey(kb.Key)
			prev, ok := sk[k]
			if !ok {
				sk[k] = slices.Clone(kb.Blob)
				continue
			}
			pa, _, err1 := sketch.DecodePartial(r.saggs, r.prec, 0, prev)
			pb, _, err2 := sketch.DecodePartial(r.saggs, r.prec, 0, kb.Blob)
			if err1 == nil && err2 == nil && pa.Merge(pb) == nil {
				sk[k] = pa.AppendBinary(nil)
			}
		}
	}
}

func (r *refComposer) closeThrough(maxEnd int64) []WindowResult {
	var out []WindowResult
	for {
		start, end := r.win.start(r.next), r.win.end(r.next)
		if end > maxEnd {
			break
		}
		r.evict()
		epochs := r.epochs()
		if len(epochs) == 0 || int64(epochs[0]) > maxEnd {
			r.next = fastForward(r.next, maxEnd+1, r.win)
			break
		}
		if int64(epochs[0]) > end {
			r.next = fastForward(r.next, int64(epochs[0]), r.win)
			continue
		}
		out = append(out, r.compose(start, end))
		r.next++
	}
	r.evict()
	return out
}

func (r *refComposer) closeAll() []WindowResult {
	epochs := r.epochs()
	if len(epochs) == 0 {
		return nil
	}
	return r.closeThrough(int64(epochs[len(epochs)-1]) + int64(r.win.Size) - 1)
}

func (r *refComposer) evict() {
	for e := range r.panes {
		if int64(e) < r.win.start(r.next) {
			delete(r.panes, e)
		}
	}
}

func (r *refComposer) epochs() []uint32 {
	var out []uint32
	for e := range r.panes {
		out = append(out, e)
	}
	slices.Sort(out)
	return out
}

func (r *refComposer) compose(start, end int64) WindowResult {
	res := WindowResult{Ledger: WindowLedger{Window: uint32(r.next), Start: uint32(start), End: uint32(end)}}
	for _, q := range r.queries {
		groups := map[string][]int64{}
		for e := start; e <= end; e++ {
			p := r.panes[uint32(e)]
			if p == nil {
				continue
			}
			for k, slots := range p.rows[q] {
				acc := groups[k]
				if acc == nil {
					acc = identities(r.aggs)
					groups[k] = acc
				}
				for j, spec := range r.aggs {
					acc[j] = spec.Op.Combine(acc[j], slots[j])
				}
			}
			for k, blob := range p.sk[q] {
				if _, _, err := sketch.DecodePartial(r.saggs, r.prec, 0, blob); err == nil && len(r.saggs) > 0 && groups[k] == nil {
					groups[k] = identities(r.aggs)
				}
			}
		}
		for _, k := range sortedMapKeys(groups) {
			row := WindowRow{Rel: q, Window: uint32(r.next), Start: uint32(start), End: uint32(end), Key: UnpackKey(k), Aggs: groups[k]}
			if len(r.saggs) > 0 {
				var acc *sketch.Partial
				for e := start; e <= end; e++ {
					p := r.panes[uint32(e)]
					if p == nil || p.sk[q][k] == nil {
						continue
					}
					part, _, err := sketch.DecodePartial(r.saggs, r.prec, 0, p.sk[q][k])
					switch {
					case err != nil:
					case acc == nil:
						acc = part
					default:
						_ = acc.Merge(part)
					}
				}
				if acc == nil {
					acc, _ = sketch.NewPartial(r.saggs, r.prec, 0)
				}
				row.Sketch = acc.Estimates(nil)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	for e := start; e <= end; e++ {
		if p := r.panes[uint32(e)]; p != nil {
			res.Ledger.Stats.add(p.stats)
		}
	}
	return res
}

func (r *refComposer) snapshot() []PaneSnapshot {
	var out []PaneSnapshot
	for _, e := range r.epochs() {
		p := r.panes[e]
		ps := PaneSnapshot{Epoch: e, Stats: p.stats}
		for _, q := range r.queries {
			if len(p.rows[q])+len(p.sk[q]) == 0 {
				continue
			}
			rs := PaneRelSnapshot{Rel: q}
			for _, k := range sortedMapKeys(p.rows[q]) {
				rs.Rows = append(rs.Rows, Row{Rel: q, Epoch: e, Key: UnpackKey(k), Aggs: p.rows[q][k]})
			}
			for _, k := range sortedMapKeys(p.sk[q]) {
				rs.Sketches = append(rs.Sketches, KeyBlob{Key: UnpackKey(k), Blob: p.sk[q][k]})
			}
			ps.Rels = append(ps.Rels, rs)
		}
		out = append(out, ps)
	}
	return out
}

// sortedMapKeys returns a map's packed keys in numeric order of their
// key words, per attribute — not in the packed strings' byte order.
func sortedMapKeys[V any](m map[string]V) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b string) int { return slices.Compare(UnpackKey(a), UnpackKey(b)) })
	return keys
}

// restore reloads the reference from a snapshot, failing where the
// composer's RestorePanes must: a sketch blob that does not decode whole.
func (r *refComposer) restore(next int64, panes []PaneSnapshot) error {
	r.panes, r.next = map[uint32]*refPane{}, next
	for _, ps := range panes {
		for _, rs := range ps.Rels {
			for _, kb := range rs.Sketches {
				if _, rest, err := sketch.DecodePartial(r.saggs, r.prec, 0, kb.Blob); err != nil || len(rest) != 0 {
					return fmt.Errorf("pane %d: bad blob", ps.Epoch)
				}
			}
		}
		r.closePane(ps.Epoch, ps.Stats, nil)
		p := r.panes[ps.Epoch]
		for _, rs := range ps.Rels {
			for _, row := range rs.Rows {
				p.rows[rs.Rel][PackKey(row.Key)] = row.Aggs
			}
			for _, kb := range rs.Sketches {
				p.sk[rs.Rel][PackKey(kb.Key)] = kb.Blob
			}
		}
	}
	return nil
}

// fuzzTrapKeys are attribute values on which packed byte order and numeric
// order disagree (1 against 256, 65536 and 1<<24), plus the extremes, so a
// run or merge that sorted by packed bytes would list groups out of order.
var fuzzTrapKeys = []uint32{0, 1, 256, 65536, 1 << 24, 255, 257, 0xFFFFFFFF}

// FuzzComposer drives the composer and the brute-force reference with the
// same operations, decoded from the input bytes — panes of rows-only,
// sketch-only and both kinds of group, over keys of arity 1, 2 and 3
// (3 takes the comparison sort), blobs that do not decode, duplicate
// keys, the same pane fed again, window closes, and a snapshot + restore
// mid-stream — and requires identical window results and snapshots.
func FuzzComposer(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0, 3, 1, 0, 2, 0x15, 3, 4, 2, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		cfg := next()
		win := WindowSpec{Size: uint32(1 + cfg%4), Slide: uint32(1 + cfg/4%4)}
		queries := []attr.Set{attr.MustParseSet("A"), attr.MustParseSet("BC"), attr.MustParseSet("ABD")}
		aggs := []lfta.AggSpec{{Op: hashtab.Sum, Input: -1}, {Op: hashtab.Max, Input: 0}}
		var saggs []sketch.Agg
		if cfg&0x10 == 0 {
			saggs = []sketch.Agg{{Kind: sketch.Distinct, Input: 0}, {Kind: sketch.Quantile, Input: 1, Q: 0.5}}
		}
		const prec = 8
		mk := func() *Composer {
			c, err := NewComposer(win, queries, aggs, saggs, prec, 0)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		c := mk()
		ref := &refComposer{win: win, queries: queries, aggs: aggs, saggs: saggs, prec: prec, panes: map[uint32]*refPane{}}

		input := func(q attr.Set) PaneInput {
			in := PaneInput{Rel: q}
			byMap := next()%2 == 0
			if byMap {
				in.Sketches = map[string][]byte{}
			}
			for n := next() % 6; n > 0; n-- {
				key := make([]uint32, q.Size())
				for i := range key {
					key[i] = fuzzTrapKeys[next()%len(fuzzTrapKeys)]
				}
				kind := next()
				if kind%4 != 1 { // 1: sketch-only
					in.Rows = append(in.Rows, Row{Rel: q, Key: key, Aggs: []int64{int64(kind%7 + 1), int64(next())}})
				}
				if kind%4 == 0 { // rows-only
					continue
				}
				blob := []byte{0xFF} // undecodable
				if kind%4 != 3 {
					p, _ := sketch.NewPartial(saggs, prec, 0)
					for v := next() % 70; v >= 0; v-- {
						p.Observe([]uint32{uint32(v * (kind + 1)), uint32(v % 13)})
					}
					blob = p.AppendBinary(nil)
				}
				if byMap {
					in.Sketches[PackKey(key)] = blob
				} else {
					in.Blobs = append(in.Blobs, KeyBlob{Key: key, Blob: blob})
				}
			}
			return in
		}
		check := func(what string, got, want any) {
			t.Helper()
			if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
				t.Fatalf("%s:\n composer  %s\n reference %s", what, g, w)
			}
		}

		epoch, fed := uint32(0), false
		for op := 0; len(data) > 0 && op < 64; op++ {
			b := next()
			switch b % 5 {
			case 0, 1, 3: // a new pane, or (3) the last one fed again
				if b%5 != 3 || !fed {
					if fed {
						epoch += uint32(1 + b/5%3)
					}
					fed = true
				}
				stats := PaneStats{Offered: uint64(b), Processed: uint64(b / 2), Late: uint64(b - b/2)}
				var inputs []PaneInput
				for _, q := range queries {
					if next()%4 != 0 {
						inputs = append(inputs, input(q))
					}
				}
				c.ClosePane(epoch, stats, inputs)
				ref.closePane(epoch, stats, inputs)
			case 2:
				through := int64(epoch) - int64(b/5%2)
				got := c.CloseThrough(through)
				check("CloseThrough", got, ref.closeThrough(through))
				if b&0x80 != 0 {
					for _, res := range got {
						c.Recycle(res)
					}
				}
			case 4:
				snap := c.SnapshotPanes()
				check("SnapshotPanes", snap, ref.snapshot())
				r, rr := mk(), *ref
				errC, errR := r.RestorePanes(c.Next(), snap), rr.restore(c.Next(), ref.snapshot())
				if (errC == nil) != (errR == nil) {
					t.Fatalf("RestorePanes: composer %v, reference %v", errC, errR)
				}
				if errC == nil {
					check("restored SnapshotPanes", r.SnapshotPanes(), snap)
					c, ref = r, &rr
				}
			}
		}
		check("final SnapshotPanes", c.SnapshotPanes(), ref.snapshot())
		check("CloseAll", c.CloseAll(), ref.closeAll())
	})
}
