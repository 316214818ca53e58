package lfta

import (
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/cost"
	"repro/internal/feedgraph"
	"repro/internal/stream"
)

// TestFaultySinkAccounting: delivered mass plus lost mass must equal the
// mass the runtime transferred — the degradation arithmetic the chaos
// suite relies on. A delivery is one sealed run (here of up to 4
// entries), lost whole.
func TestFaultySinkAccounting(t *testing.T) {
	rel := attr.MustParseSet("A")
	cfg, err := feedgraph.NewConfig([]attr.Set{rel}, nil)
	if err != nil {
		t.Fatal(err)
	}
	faults := NewFaultySink(SinkFaults{FailEvery: 3})
	var delivered int64
	var deliveredN uint64
	count := func(_ attr.Set, _ uint32, keys []uint32, aggs []int64) {
		for _, v := range aggs {
			delivered += v
		}
		deliveredN += uint64(len(keys))
	}

	// A tiny table forces steady evictions.
	rt, err := New(cfg, cost.Alloc{rel: 2}, CountStar, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetRunSink(faults.WrapRun(count), 4)
	for i := 0; i < 5000; i++ {
		rt.Process(stream.Record{Attrs: []uint32{uint32(i % 97)}, Time: 0}, 0)
	}
	rt.FlushEpoch()

	lostN, lostMass := faults.Lost(rel)
	totalMass := delivered
	if len(lostMass) > 0 {
		totalMass += lostMass[0]
	}
	if totalMass != 5000 {
		t.Errorf("delivered %d + lost %v != 5000 records", delivered, lostMass)
	}
	if faults.Failures() == 0 || lostN == 0 {
		t.Errorf("fault injector never fired (failures=%d lost=%d)", faults.Failures(), lostN)
	}
	if deliveredN+lostN != rt.Ops().Transfers {
		t.Errorf("delivered %d + lost %d evictions != %d transfers", deliveredN, lostN, rt.Ops().Transfers)
	}
}

// TestFaultySinkDelays: injected delays slow delivery but lose nothing.
func TestFaultySinkDelays(t *testing.T) {
	faults := NewFaultySink(SinkFaults{DelayEvery: 2, Delay: time.Microsecond})
	var got int
	sink := faults.WrapRun(func(attr.Set, uint32, []uint32, []int64) { got++ })
	for i := 0; i < 10; i++ {
		sink(attr.MustParseSet("A"), 0, []uint32{1}, []int64{1})
	}
	if got != 10 {
		t.Errorf("delayed sink delivered %d of 10", got)
	}
	if faults.Failures() != 0 {
		t.Errorf("failures = %d; want 0", faults.Failures())
	}
}
