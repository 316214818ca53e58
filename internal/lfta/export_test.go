package lfta

import (
	"slices"

	"repro/internal/attr"
	"repro/internal/stream"
)

// Test drivers and probes shared by the internal and external test
// packages.

// ShardRouteSeed exposes the routing hash's key, so a test can compute
// the shard of an attribute vector as
// hashtab.Reduce(hashtab.HashWords(ShardRouteSeed, attrs), n).
const ShardRouteSeed = shardRouteSeed

// drive feeds recs in arrival order the way the engine's scalar lane
// does: process per record under the stream clock's epoch, flush at every
// epoch boundary and once at the end.
func drive(recs []stream.Record, epochLen uint32, process func(stream.Record, uint32), flush func()) {
	clock := stream.NewClock(epochLen)
	for _, rec := range recs {
		epoch, rolled := clock.Advance(rec.Time)
		if rolled {
			flush()
		}
		process(rec, epoch)
	}
	if started, _, _ := clock.Snapshot(); started {
		flush()
	}
}

// RunRecords drives one runtime over recs through Process and FlushEpoch
// and returns its operation counts.
func RunRecords(rt *Runtime, recs []stream.Record, epochLen uint32) Ops {
	drive(recs, epochLen, rt.Process, rt.FlushEpoch)
	return rt.Ops()
}

// RunShardedRecords drives a sharded deployment over recs the same way,
// sending each record to the shard ShardColumns would route it to.
func RunShardedRecords(s *Sharded, recs []stream.Record, epochLen uint32) Ops {
	six := make([]int32, 1)
	sel := []uint64{1}
	cols := make([][]uint32, 0, attr.MaxAttrs)
	drive(recs, epochLen, func(rec stream.Record, epoch uint32) {
		cols = cols[:0]
		for i := range rec.Attrs {
			cols = append(cols, rec.Attrs[i:i+1])
		}
		s.ShardColumns(cols, 1, sel, six)
		s.shards[six[0]].Process(rec, epoch)
	}, s.FlushEpoch)
	return s.Ops()
}

// Transfer is one entry a runtime handed to its run sink.
type Transfer struct {
	Rel   attr.Set
	Epoch uint32
	Key   []uint32
	Aggs  []int64
}

// Collect returns a run sink that appends every entry of every sealed run
// to *out, in delivery order.
func Collect(out *[]Transfer) RunSink {
	return func(rel attr.Set, epoch uint32, keys []uint32, aggs []int64) {
		a := rel.Size()
		n := len(keys) / a
		na := len(aggs) / n
		for i := 0; i < n; i++ {
			*out = append(*out, Transfer{
				Rel:   rel,
				Epoch: epoch,
				Key:   slices.Clone(keys[i*a : (i+1)*a]),
				Aggs:  slices.Clone(aggs[i*na : (i+1)*na]),
			})
		}
	}
}
