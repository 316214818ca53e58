package lfta

import (
	"sync"
	"time"

	"repro/internal/attr"
)

// SinkFaults configure a FaultySink: deterministic transient failures and
// delays on the LFTA→HFTA transfer channel. A zero or negative Every
// disables that fault.
type SinkFaults struct {
	FailEvery  int           // every Nth delivery is lost
	DelayEvery int           // every Nth delivery sleeps for Delay first
	Delay      time.Duration // injected latency
}

// FaultySink wraps a RunSink — the transfer path production runs — with
// injected faults, modelling a flaky transfer channel between the
// NIC-resident LFTA and the host HFTA. Each sealed run is one delivery: a
// failed delivery is *lost* — the whole run never reaches the inner sink,
// as a dropped transfer frame would not — and the lost entry count and
// aggregate mass are accounted per relation from the run's flat columns,
// so tests can verify exact degradation arithmetic: for additive
// aggregates, delivered mass + lost mass must equal the mass the runtime
// transferred. Delays exercise the engine's tolerance of a slow sink
// without corrupting state.
//
// All methods are safe for concurrent use (parallel LFTA shards share one
// FaultySink).
type FaultySink struct {
	faults SinkFaults

	mu         sync.Mutex
	deliveries uint64
	failures   uint64
	lostCount  map[attr.Set]uint64
	lostMass   map[attr.Set][]int64
}

// NewFaultySink builds a sink-fault injector.
func NewFaultySink(f SinkFaults) *FaultySink {
	return &FaultySink{
		faults:    f,
		lostCount: make(map[attr.Set]uint64),
		lostMass:  make(map[attr.Set][]int64),
	}
}

// inject decides the fate of one delivery — a sealed run of n > 0 entries
// of rel whose aggregates are the flat n×naggs block aggs; it returns true
// when the delivery must be dropped, after accounting the loss.
func (s *FaultySink) inject(rel attr.Set, n int, aggs []int64) (lost bool) {
	s.mu.Lock()
	s.deliveries++
	d := s.deliveries
	fail := s.faults.FailEvery > 0 && d%uint64(s.faults.FailEvery) == 0
	delay := s.faults.DelayEvery > 0 && d%uint64(s.faults.DelayEvery) == 0
	if fail {
		s.failures++
		s.lostCount[rel] += uint64(n)
		na := len(aggs) / n
		mass := s.lostMass[rel]
		if len(mass) < na {
			mass = append(mass, make([]int64, na-len(mass))...)
			s.lostMass[rel] = mass
		}
		for i, v := range aggs {
			mass[i%na] += v
		}
	}
	s.mu.Unlock()
	if delay && s.faults.Delay > 0 {
		time.Sleep(s.faults.Delay)
	}
	return fail
}

// WrapRun returns a RunSink injecting the configured faults in front of
// inner.
func (s *FaultySink) WrapRun(inner RunSink) RunSink {
	return func(rel attr.Set, epoch uint32, keys []uint32, aggs []int64) {
		if s.inject(rel, len(keys)/rel.Size(), aggs) {
			return
		}
		inner(rel, epoch, keys, aggs)
	}
}

// Failures returns the number of lost deliveries.
func (s *FaultySink) Failures() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failures
}

// Lost returns the number of evictions lost for one relation and the
// summed aggregate values they carried (meaningful for additive
// aggregates such as count and sum).
func (s *FaultySink) Lost(rel attr.Set) (count uint64, mass []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lostCount[rel], append([]int64(nil), s.lostMass[rel]...)
}
