package lfta

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/selvec"
	"repro/internal/spsc"
	"repro/internal/stream"
)

// Pipelined sharded ingest: columnar router → SPSC rings → shard workers.
//
// The previous RunParallel routed one record at a time and handed
// batches to shards over buffered channels; at the measured probe costs
// the per-record routing and channel synchronization exceeded the LFTA
// work itself, so the "parallel" path ran slower than sequential
// routing — the shared-queue contention Xue & Marcus ("Global Hash
// Tables Strike Back!") and Gulisano et al. identify as the scaling
// killer for exactly this workload shape. The rebuild follows their
// resolution: partitioned batches over lock-free SPSC structures.
//
//	source ──ReadColumns──► router ──runs──► work ring ──► shard worker ──► HFTA
//	                          ▲                                 │
//	                          └──────────── freelist ◄──────────┘
//
// The router pulls column-major batches from the source (ReadColumns,
// routerBatch records) and partitions each same-epoch segment in two
// passes: pass 1 routes the attribute columns through ShardColumns (the
// engine's routing kernel, over a saturated selection) into a per-record
// shard index; pass 2
// scatters each attribute column into the shards' staging
// ColumnBatches, one stride-1 source read per attribute.
// Records are never materialized row-wise anywhere on this path.
//
// Full staging batches (runCapacity records, all of one epoch) are
// published to the shard's fixed-capacity work ring. No channels, no
// locks, no allocation: batches recycle through a per-shard freelist
// ring, so steady state is zero allocations per record.
//
// Epoch boundaries travel in-band: when the router's clock rolls it
// seals every shard's staging batch (tagged with the closing epoch)
// and enqueues an epoch marker, so each shard flushes exactly when the
// boundary reaches it in stream order. Shard flush and the HFTA merge
// of epoch e therefore overlap with the router's partitioning of epoch
// e+1 instead of meeting at a barrier.
//
// Backpressure is natural: a router ahead of a slow shard runs out of
// free batches for that shard and waits on its freelist, leaving the
// other shards' rings draining meanwhile.
type pipeline struct {
	work    []*spsc.Ring[run]
	free    []*spsc.Ring[*stream.ColumnBatch]
	staging []*stream.ColumnBatch // router-side current run per shard
	batch   *stream.ColumnBatch   // router's source pull buffer

	// Router partitioning scratch, all sized once: the pull batch's
	// saturated selection and per-record shard indices, and per-shard
	// counts/cursors/column views of the scatter pass.
	all     selvec.Bitmap
	shardIx []int32
	cnt     []int32
	base    []int32
	pos     []int32
	dstCol  [][]uint32
}

// run is one ring element: a sealed column-major staging batch sharing
// an epoch, an in-band epoch marker, or the end-of-stream signal.
type run struct {
	cols  *stream.ColumnBatch // nil for markers and stop
	epoch uint32
	kind  runKind
}

type runKind uint8

const (
	runRecords runKind = iota
	runEpoch           // epoch boundary: flush state tagged < epoch, then open epoch
	runStop            // stream end: final flush, then exit
)

// Pipeline tuning (see docs/PERF.md for the reasoning behind the
// defaults).
const (
	// routerBatch is how many records one ReadColumns pulls from the
	// source: large enough to amortize the Source interface dispatch,
	// small enough that the batch's columns stay resident in L1/L2
	// while being partitioned.
	routerBatch = 1024
	// runCapacity is the records per staging batch — the unit of
	// cross-goroutine hand-off. At 4 bytes per attribute word a sealed
	// 4-attribute batch is ~8 KB, big enough that ring synchronization
	// amortizes to <0.1 ns/record, small enough that a batch is still
	// warm when the worker probes it.
	runCapacity = 512
	// ringRuns is the work-ring depth per shard: the router can run this
	// many runs ahead of a shard before backpressure stalls it.
	ringRuns = 8
)

// newPipeline sizes rings and pre-allocates every staging batch a steady
// state can have in flight: ringRuns in the work ring, one in the
// worker, one staging with the router.
func newPipeline(nShards int) *pipeline {
	p := &pipeline{
		work:    make([]*spsc.Ring[run], nShards),
		free:    make([]*spsc.Ring[*stream.ColumnBatch], nShards),
		staging: make([]*stream.ColumnBatch, nShards),
		batch:   &stream.ColumnBatch{},
		all:     selvec.Grow(nil, routerBatch),
		shardIx: make([]int32, routerBatch),
		cnt:     make([]int32, nShards),
		base:    make([]int32, nShards),
		pos:     make([]int32, nShards),
		dstCol:  make([][]uint32, nShards),
	}
	for i := 0; i < nShards; i++ {
		p.work[i] = spsc.New[run](ringRuns)
		// The freelist must be able to hold every batch at once (so
		// worker returns never block) and seeds enough batches that the
		// router can fill the whole work ring plus its own staging run
		// while the worker still holds one.
		p.free[i] = spsc.New[*stream.ColumnBatch](2 * (ringRuns + 2))
		for j := 0; j < ringRuns+2; j++ {
			p.free[i].Push(&stream.ColumnBatch{})
		}
	}
	return p
}

// spinYield is the wait policy of both ring sides: burn a few probes
// first (the common case resolves in nanoseconds), yield the processor
// while the peer is scheduled, and back off to short sleeps only when
// the peer has been unresponsive long enough that latency no longer
// matters (for example a sink blocked on I/O). Keeping the policy here,
// outside spsc, lets the ring stay non-blocking.
func spinYield(try int) {
	switch {
	case try < 64:
		// busy-spin
	case try < 1<<14:
		runtime.Gosched()
	default:
		time.Sleep(50 * time.Microsecond)
	}
}

// pushRun publishes r to shard i's work ring, waiting out backpressure.
func (p *pipeline) pushRun(i int, r run) {
	for try := 0; !p.work[i].Push(r); try++ {
		spinYield(try)
	}
}

// nextStaging hands the router a fresh (empty) staging batch of the
// given width for shard i.
func (p *pipeline) nextStaging(i, width int) *stream.ColumnBatch {
	for try := 0; ; try++ {
		if b, ok := p.free[i].Pop(); ok {
			b.Reset(width)
			return b
		}
		spinYield(try)
	}
}

// sealStaging publishes shard i's staging batch under the given epoch
// and replaces it with a fresh one from the freelist.
func (p *pipeline) sealStaging(i int, epoch uint32, width int) {
	p.pushRun(i, run{cols: p.staging[i], epoch: epoch, kind: runRecords})
	p.staging[i] = p.nextStaging(i, width)
}

// worker drains one shard's work ring: processing sealed columnar runs,
// flushing at in-band epoch markers, and recycling batches to the
// freelist.
func (p *pipeline) worker(rt *Runtime, i int, wg *sync.WaitGroup) {
	defer wg.Done()
	work, free := p.work[i], p.free[i]
	started := false
	for {
		r, ok := work.Pop()
		if !ok {
			for try := 0; ; try++ {
				spinYield(try)
				if r, ok = work.Pop(); ok {
					break
				}
			}
		}
		switch r.kind {
		case runRecords:
			if r.cols.Len() > 0 {
				rt.ProcessColumns(r.cols.Cols, r.epoch)
				started = true
			}
			// Return the batch; the freelist holds all batches, so
			// this cannot block.
			free.Push(r.cols)
		case runEpoch:
			// Flush the state accumulated before the boundary; the
			// marker's epoch is the one now opening. A shard that saw
			// no records has nothing to flush.
			if started {
				rt.FlushEpoch()
			}
		case runStop:
			if started {
				rt.FlushEpoch()
			}
			return
		}
	}
}

// scatter partitions segment [lo, hi) of the pull batch — all records of
// one epoch, shard indices precomputed in six — into the shards' staging
// batches attribute-by-attribute, sealing any batch that fills. Chunking
// bounds each inner pass so no staging batch overflows runCapacity
// mid-scatter: a chunk ends where some shard's batch would fill, that
// batch seals, and the scan resumes.
func (p *pipeline) scatter(cols [][]uint32, six []int32, lo, hi int, epoch uint32, width, n int) {
	cnt, base, pos := p.cnt, p.base, p.pos
	for i := lo; i < hi; {
		for s := 0; s < n; s++ {
			cnt[s] = 0
		}
		j := i
		for j < hi {
			s := six[j]
			if p.staging[s].Len()+int(cnt[s]) >= runCapacity {
				break
			}
			cnt[s]++
			j++
		}
		if j == i {
			// The next record's shard is exactly full: seal it and rescan.
			p.sealStaging(int(six[i]), epoch, width)
			continue
		}
		for s := 0; s < n; s++ {
			if cnt[s] > 0 {
				base[s] = int32(p.staging[s].Extend(int(cnt[s])))
			}
		}
		for a := 0; a < width; a++ {
			src := cols[a]
			dst := p.dstCol
			for s := 0; s < n; s++ {
				if cnt[s] > 0 {
					dst[s] = p.staging[s].Cols[a]
					pos[s] = base[s]
				}
			}
			for k := i; k < j; k++ {
				s := six[k]
				dst[s][pos[s]] = src[k]
				pos[s]++
			}
		}
		for s := 0; s < n; s++ {
			if cnt[s] > 0 && p.staging[s].Len() >= runCapacity {
				p.sealStaging(s, epoch, width)
			}
		}
		i = j
	}
}

// RunParallel consumes the source with one goroutine per shard behind a
// pipelined columnar router. Column-major batches are pulled via
// ReadColumns, routed by ShardColumns, scattered into per-shard staging
// columns, and handed over lock-free SPSC rings; epoch boundaries
// propagate as in-band markers so per-shard flushes and the HFTA merge
// overlap the next epoch's routing. The run sink passed at construction
// (or SetRunSink) must be concurrency-safe (hfta.(*Aggregator).MergeRun
// is).
//
// The router's single clock defines epoch boundaries in stream arrival
// order — the engine's clock semantics, including the clamping of late
// records into the open epoch.
func (s *Sharded) RunParallel(src stream.Source, epochLen uint32) (Ops, error) {
	n := len(s.shards)
	if s.pipe == nil {
		s.pipe = newPipeline(n)
	}
	p := s.pipe

	var wg sync.WaitGroup
	wg.Add(n)
	for i, rt := range s.shards {
		go p.worker(rt, i, &wg)
	}

	clock := stream.NewClock(epochLen)
	ep := stream.Epoch{Length: epochLen}
	width := -1
	for {
		m := stream.ReadColumns(src, p.batch, routerBatch)
		if m == 0 {
			break
		}
		if w := p.batch.Width(); w != width {
			// First batch, or a mid-stream schema change: (re)open every
			// shard's staging batch at the new width, sealing any records
			// staged at the old one first.
			for i := 0; i < n; i++ {
				switch {
				case p.staging[i] == nil:
					p.staging[i] = p.nextStaging(i, w)
				case p.staging[i].Len() > 0:
					p.sealStaging(i, clock.Current(), w)
				default:
					p.staging[i].Reset(w)
				}
			}
			width = w
		}
		cols, times := p.batch.Cols, p.batch.Time

		// Pass 1: route the whole pull batch through the engine's own
		// routing kernel, over the saturated selection.
		p.all = selvec.Grow(p.all, m)
		p.all.SetAll(m)
		six := p.shardIx[:s.ShardColumns(cols, m, p.all, p.shardIx)]

		// Split the batch into same-epoch segments in arrival order and
		// scatter each (pass 2). The segment rule reproduces per-record
		// clock semantics exactly: a record rolls the clock only when its
		// epoch exceeds the current one; late records clamp into the open
		// epoch and stay in the segment.
		lo := 0
		for lo < m {
			prev := clock.Current()
			epoch, rolled := clock.Advance(times[lo])
			if rolled {
				// Seal every shard's open batch under the epoch it
				// accumulated and propagate the boundary in-band.
				for i := 0; i < n; i++ {
					if p.staging[i].Len() > 0 {
						p.pushRun(i, run{cols: p.staging[i], epoch: prev, kind: runRecords})
						p.staging[i] = p.nextStaging(i, width)
					}
					p.pushRun(i, run{epoch: epoch, kind: runEpoch})
				}
			}
			hi := lo + 1
			for hi < m && ep.Of(times[hi]) <= epoch {
				hi++
			}
			p.scatter(cols, six, lo, hi, epoch, width, n)
			lo = hi
		}
	}
	for i := 0; i < n; i++ {
		if p.staging[i] != nil && p.staging[i].Len() > 0 {
			p.sealStaging(i, clock.Current(), width)
		}
		p.pushRun(i, run{kind: runStop})
	}
	wg.Wait()
	return s.Ops(), src.Err()
}
