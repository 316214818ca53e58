package main

import (
	"encoding/json"
	"os"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls into
// each layer's public functions; nothing inside the program is
// instrumented. A span is (name, start, end, parent, epoch); a layer's
// self time is its span's duration minus the part its child spans cover,
// e.g. lfta.process minus the hfta.merge spans its RunSink callback opens.

type stage uint8

const (
	stDecode     stage = iota // stream.ReadColumns
	stFilter                  // CompiledFilter.EvalColumns
	stRoute                   // Sharded.ShardColumns + per-shard selections
	stAdmit                   // per-lane clock, ledger and segment gathering
	stSketch                  // sketch.Partial.Observe per query group
	stProcess                 // Runtime.ProcessColumnsSel (on the shed path: the whole admit-and-probe loop)
	stFlush                   // Runtime.FlushEpoch
	stMerge                   // Aggregator.MergeRun (child of process/flush)
	stRows                    // Aggregator.Rows + Drop
	stCompose                 // Composer.ClosePane + CloseThrough
	stAppend                  // Store.AppendEpoch
	stCheckpoint              // Engine.WriteCheckpointFile
	stEmit                    // the engine's HAVING pass over emitted rows
	numStages
)

var stageNames = [numStages]string{
	"stream.decode", "query.filter", "lfta.route", "core.admit", "sketch.observe",
	"lfta.process", "lfta.flush", "hfta.merge", "hfta.rows", "hfta.compose",
	"epochstore.append", "core.checkpoint", "core.emit",
}

type span struct {
	start  int64 // ns since the tracer started
	end    int64
	parent int32 // index of the enclosing span, -1 at the root
	epoch  uint32
	stage  stage
}

// tracer keeps spans in a preallocated slice and writes them out when the
// benchmark ends. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	open  int32 // innermost open span, -1 if none
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), open: -1}
}

func (t *tracer) begin(s stage, epoch uint32) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{stage: s, parent: t.open, epoch: epoch,
		start: int64(time.Since(t.t0))})
	t.open = id
	return id
}

func (t *tracer) end(id int32) {
	sp := &t.spans[id]
	sp.end = int64(time.Since(t.t0))
	t.open = sp.parent
}

// stageTimes are per-stage totals over a trace.
type stageTimes struct {
	total [numStages]int64 // span durations
	self  [numStages]int64 // total minus child spans
	count [numStages]int64
	root  int64 // summed duration of parentless spans
}

func (t *tracer) totals() stageTimes {
	var st stageTimes
	for i := range t.spans {
		sp := &t.spans[i]
		d := sp.end - sp.start
		st.total[sp.stage] += d
		st.self[sp.stage] += d
		st.count[sp.stage]++
		if sp.parent >= 0 {
			st.self[t.spans[sp.parent].stage] -= d
		} else {
			st.root += d
		}
	}
	return st
}

// write dumps the spans as rows of
// [name, start_ns, end_ns, parent, epoch].
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	rows := make([][5]any, len(t.spans))
	for i, sp := range t.spans {
		rows[i] = [5]any{stageNames[sp.stage], sp.start, sp.end, sp.parent, sp.epoch}
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{
		"columns": []string{"name", "start_ns", "end_ns", "parent", "epoch"},
		"spans":   rows,
	}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
