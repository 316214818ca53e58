package stream

import "fmt"

// OrderedSource re-orders a slightly out-of-order stream (e.g. records
// merged from several capture interfaces) into non-decreasing timestamp
// order using a bounded slack window, so the engine's epoch clock — which
// assumes ordered arrivals, as Gigascope does — sees a well-formed
// stream.
//
// Records are buffered until one with timestamp ≥ watermark + Slack
// arrives; everything at or below the advancing watermark is then
// released in timestamp order. A record older than the watermark at
// arrival is *late*: it cannot be emitted without violating order, so it
// is dropped and counted.
//
// The input is read in column batches and the buffered records' attributes
// live in a recycled flat arena, so NextColumns allocates nothing in
// steady state. Next and NextColumns share one window and may be mixed.
type OrderedSource struct {
	src   Source
	slack uint32

	in    ColumnBatch // input read ahead from src
	inPos int         // next input record the window has not admitted
	width int         // record width, fixed by the first input batch (-1 before)
	heap  []ordEntry  // min-heap by timestamp over the buffered records
	attrs []uint32    // arena: slot s holds attrs[s*width : (s+1)*width]
	slots int32       // arena slots ever allocated
	free  []int32     // released arena slots

	watermark uint32
	started   bool
	drained   bool
	late      uint64
	err       error
}

// ordEntry is one buffered record: its timestamp and its arena slot.
type ordEntry struct {
	time uint32
	slot int32
}

// NewOrderedSource wraps src with a reordering window of slack time
// units. Slack 0 passes records through in arrival order, dropping any
// that would move time backwards.
func NewOrderedSource(src Source, slack uint32) *OrderedSource {
	return &OrderedSource{src: src, slack: slack, width: -1}
}

// Late returns the number of records dropped for arriving beyond the
// reordering window.
func (o *OrderedSource) Late() uint64 { return o.late }

// Next implements Source.
func (o *OrderedSource) Next() (Record, bool) {
	row, t, ok := o.next()
	if !ok {
		return Record{}, false
	}
	return Record{Attrs: append([]uint32(nil), row...), Time: t}, true
}

// NextColumns implements ColumnSource: up to limit released records,
// copied out of the arena into dst.
func (o *OrderedSource) NextColumns(dst *ColumnBatch, limit int) int {
	n := 0
	for ; n < limit; n++ {
		row, t, ok := o.next()
		if !ok {
			break
		}
		if n == 0 {
			dst.Reset(o.width)
		}
		dst.Append(row, t)
	}
	if n == 0 {
		dst.Reset(0)
	}
	return n
}

// Err implements Source.
func (o *OrderedSource) Err() error { return o.err }

// next releases the next record in timestamp order: the buffered minimum
// once the watermark covers it, otherwise it admits input records until it
// does. It returns the record's arena row, valid until the next call, and
// ok false once the stream is drained and the buffer empty.
func (o *OrderedSource) next() (row []uint32, t uint32, ok bool) {
	for {
		if len(o.heap) > 0 && (o.drained || o.heap[0].time <= o.watermark) {
			e := o.pop()
			o.free = append(o.free, e.slot)
			s := int(e.slot) * o.width
			return o.attrs[s : s+o.width], e.time, true
		}
		if o.drained {
			return nil, 0, false
		}
		if o.inPos == o.in.Len() && !o.refill() {
			continue // release the remaining buffer in order
		}
		i := o.inPos
		o.inPos++
		t := o.in.Time[i]
		if o.started && t < o.watermark {
			o.late++
			continue
		}
		o.started = true
		o.push(t, i)
		if t >= o.slack && t-o.slack > o.watermark {
			o.watermark = t - o.slack
		}
	}
}

// refill reads the next input batch; false marks the input drained (its
// end, or a record width that differs from the stream's).
func (o *OrderedSource) refill() bool {
	o.inPos = 0
	if ReadColumns(o.src, &o.in, ColumnBatchLen) == 0 {
		o.err, o.drained = o.src.Err(), true
		return false
	}
	if w := o.in.Width(); o.width < 0 {
		o.width = w
	} else if w != o.width {
		o.err, o.drained = fmt.Errorf("stream: record width changed from %d to %d", o.width, w), true
		return false
	}
	return true
}

// push buffers input record i under timestamp t: its attributes go to a
// free arena slot and its entry sifts up the heap.
func (o *OrderedSource) push(t uint32, i int) {
	var slot int32
	if n := len(o.free); n > 0 {
		slot, o.free = o.free[n-1], o.free[:n-1]
	} else {
		slot = o.slots
		o.slots++
		o.attrs = append(o.attrs, make([]uint32, o.width)...)
	}
	row := o.attrs[int(slot)*o.width : (int(slot)+1)*o.width]
	for a := range row {
		row[a] = o.in.Cols[a][i]
	}
	o.heap = append(o.heap, ordEntry{time: t, slot: slot})
	// container/heap's up, step for step: records with equal timestamps
	// leave in the order they always have.
	h := o.heap
	for j := len(h) - 1; ; {
		p := (j - 1) / 2
		if p == j || h[j].time >= h[p].time {
			break
		}
		h[p], h[j] = h[j], h[p]
		j = p
	}
}

// pop removes the heap's minimum: container/heap's Pop, step for step
// (swap the root with the last entry, sift the new root down over the
// rest, take the last).
func (o *OrderedSource) pop() ordEntry {
	h := o.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].time < h[j].time {
			j = j2
		}
		if h[j].time >= h[i].time {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	o.heap = h[:n]
	return h[n]
}
