package main

import (
	"time"

	magg "repro"
	"repro/internal/stream"
)

// replay is the closed-loop load: the system under test pulls the next
// batch only when it has finished the previous one, so the generator
// never runs concurrently with it. It replays one trace file for whole
// passes, adding pass × ticks to the timestamp column.
//
// Pass 0 is the untimed warm-up. After it, passes run until the time
// budget is spent, or until `total` passes have run when that is set (the
// staged pipeline replays one pass; tests pin the record count); a pass
// is never cut short, so the exact-count metrics do not depend on where
// the clock happened to stop.
type replay struct {
	path     string
	ticks    uint32
	epochLen uint32
	budget   time.Duration
	total    int     // >0: run exactly this many passes, warm-up included
	tr       *tracer // spans around the decode call when tracing

	src    *stream.TraceSource
	pass   int
	offset uint32
	done   bool
	err    error

	// started[k] is when pass k's first read was requested; handover is
	// when the newest batch (or, on the scalar path, the newest record
	// that opens an epoch) was handed to the consumer.
	started  []time.Time
	doneAt   time.Time // when the consumer was told the stream had ended
	handover time.Time
	epoch    uint32 // scalar path: epoch of the previous record

	onPassEnd func(pass int) // called when a pass has been read to its end

	// Every pass is cut at the same record counts into chunksPerPass
	// chunks. marks[k][j] is when the consumer asked for the first record
	// past chunk j of pass k, having finished all of the chunk; chunk 0
	// starts at started[k].
	chunkLen int
	read     int // records of this pass handed over so far
	marks    [][]time.Time
}

// chunksPerPass is how many position-matched pieces a pass is timed in.
const chunksPerPass = 64

// newReplay replays p's trace: for `total` passes if that is positive,
// else one warm-up pass and then whole passes until budget is spent.
func newReplay(p *prepared, budget time.Duration, total int) *replay {
	return &replay{path: p.tracePath, ticks: p.w.ticks, epochLen: p.w.epochLen,
		budget: budget, total: total, chunkLen: max(p.w.records/chunksPerPass, 1)}
}

// mark notes, on entry to a read, every chunk boundary the consumer has
// now finished.
func (r *replay) mark() {
	m := &r.marks[len(r.marks)-1]
	if r.read < (len(*m)+1)*r.chunkLen {
		return
	}
	now := time.Now()
	for r.read >= (len(*m)+1)*r.chunkLen {
		*m = append(*m, now)
	}
}

// timedPasses is the number of passes after the warm-up.
func (r *replay) timedPasses() int { return len(r.started) - 1 }

// open starts the next pass, or reports that the run is over.
func (r *replay) open() bool {
	if r.done {
		return false
	}
	if r.src != nil {
		if r.onPassEnd != nil {
			r.onPassEnd(r.pass)
		}
		r.pass++
		r.offset += r.ticks
		if r.total > 0 && r.pass >= r.total ||
			r.total == 0 && r.pass > 1 && time.Since(r.started[1]) >= r.budget {
			r.done, r.doneAt = true, time.Now()
			return false
		}
	}
	src, err := magg.OpenTraceSource(r.path)
	if err != nil {
		r.err, r.done = err, true
		return false
	}
	r.src = src
	r.read = 0
	r.marks = append(r.marks, make([]time.Time, 0, chunksPerPass))
	r.started = append(r.started, time.Now())
	return true
}

// NextColumns implements stream.ColumnSource.
func (r *replay) NextColumns(dst *stream.ColumnBatch, limit int) int {
	for {
		if r.src == nil && !r.open() {
			dst.Reset(0)
			return 0
		}
		r.mark()
		var id int32
		if r.tr != nil {
			id = r.tr.begin(stDecode, 0)
		}
		n := stream.ReadColumns(r.src, dst, limit)
		if r.tr != nil {
			r.tr.end(id)
		}
		if n > 0 {
			if r.offset != 0 {
				for i := range dst.Time {
					dst.Time[i] += r.offset
				}
			}
			r.handover = time.Now()
			r.read += n
			return n
		}
		if err := r.src.Err(); err != nil {
			r.err, r.done = err, true
		}
		if !r.open() {
			dst.Reset(0)
			return 0
		}
	}
}

// Next implements stream.Source: the scalar path the engine takes when a
// budget is set. There is no batch, so the hand-over that counts for
// emission latency is the record that opens a new epoch.
func (r *replay) Next() (stream.Record, bool) {
	for {
		if r.src == nil && !r.open() {
			return stream.Record{}, false
		}
		if r.read%r.chunkLen == 0 && r.read > 0 {
			r.mark()
		}
		rec, ok := r.src.Next()
		if ok {
			r.read++
			rec.Time += r.offset
			if e := rec.Time / r.epochLen; e != r.epoch {
				r.epoch = e
				r.handover = time.Now()
			}
			return rec, true
		}
		if err := r.src.Err(); err != nil {
			r.err, r.done = err, true
		}
		if !r.open() {
			return stream.Record{}, false
		}
	}
}

// Err implements stream.Source.
func (r *replay) Err() error { return r.err }
