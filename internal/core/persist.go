package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/backoff"
	"repro/internal/epochstore"
)

// Durable epoch persistence. When Options.Store is set, every finalized
// epoch's results are handed to an asynchronous persister goroutine over
// a bounded queue and appended to the epoch store with retries
// (capped-exponential backoff with seeded jitter). The engine's hot path
// never blocks on the store: if the store is down past the retry budget,
// or the queue is full because persistence cannot keep up, the epoch is
// recorded as unpersisted in the durability ledger and ingest continues —
// graceful degradation, surfaced through Stats/Diagnostics exactly like
// the overload ledger. Every checkpoint carries the ledger in its
// durability footer (zeros without a store), so a resumed run still knows
// which epochs never reached the store.

// Durability is the durable-store accounting: how many closed epochs
// reached the store, and which did not (with why).
type Durability struct {
	// Enabled reports whether a store is attached to the engine.
	Enabled bool
	// Persisted counts epochs whose every query relation reached the store.
	Persisted int
	// Unpersisted lists closed epochs that did not fully persist,
	// ascending. These epochs' answers were still emitted and counted; only
	// their durable copies are missing.
	Unpersisted []uint32
	// QueueFull counts epochs lost to a saturated persist queue (a subset
	// of Unpersisted's causes).
	QueueFull int
	// LastError is the most recent persistence failure, "" if none.
	LastError string
}

// EpochUnpersisted reports whether epoch is in the unpersisted set.
func (d Durability) EpochUnpersisted(epoch uint32) bool {
	for _, e := range d.Unpersisted {
		if e == epoch {
			return true
		}
	}
	return false
}

// durableLedger tracks persistence outcomes. The persister goroutine
// writes it; Stats/Diagnostics read it from the engine's goroutine.
type durableLedger struct {
	mu          sync.Mutex
	persisted   int
	unpersisted map[uint32]string // epoch -> failure reason
	queueFull   int
	lastErr     string
}

func newDurableLedger() *durableLedger {
	return &durableLedger{unpersisted: make(map[uint32]string)}
}

func (l *durableLedger) markPersisted(epoch uint32) {
	l.mu.Lock()
	if _, was := l.unpersisted[epoch]; was {
		delete(l.unpersisted, epoch)
	}
	l.persisted++
	l.mu.Unlock()
}

func (l *durableLedger) markFailed(epoch uint32, reason string, queueFull bool) {
	l.mu.Lock()
	l.unpersisted[epoch] = reason
	l.lastErr = reason
	if queueFull {
		l.queueFull++
	}
	l.mu.Unlock()
}

// restore seeds the ledger from a checkpoint's durability footer.
func (l *durableLedger) restore(persisted int, unpersisted []uint32, queueFull int) {
	l.mu.Lock()
	l.persisted = persisted
	l.queueFull = queueFull
	l.unpersisted = make(map[uint32]string, len(unpersisted))
	for _, e := range unpersisted {
		l.unpersisted[e] = "unpersisted at checkpoint"
	}
	l.mu.Unlock()
}

func (l *durableLedger) snapshot(enabled bool) Durability {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := Durability{
		Enabled:   enabled,
		Persisted: l.persisted,
		QueueFull: l.queueFull,
		LastError: l.lastErr,
	}
	for e := range l.unpersisted {
		d.Unpersisted = append(d.Unpersisted, e)
	}
	sort.Slice(d.Unpersisted, func(i, j int) bool { return d.Unpersisted[i] < d.Unpersisted[j] })
	return d
}

// persistJob carries one finalized epoch to the persister. A job with a
// non-nil ack and no records is a barrier: the persister closes ack once
// every earlier job has been resolved (tests and Finish use it to drain).
type persistJob struct {
	epoch uint32
	recs  []epochstore.Record
	ack   chan struct{}
}

// persister is the async persistence pipeline: one goroutine draining a
// bounded queue into the epoch store with retries.
type persister struct {
	store   *epochstore.Store
	jobs    chan persistJob
	done    chan struct{}
	retry   backoff.Policy
	ledger  *durableLedger
	stopped bool // guarded by the engine's single-goroutine discipline
}

func newPersister(store *epochstore.Store, queue int, retry backoff.Policy, ledger *durableLedger) *persister {
	if queue <= 0 {
		queue = 8
	}
	p := &persister{
		store:  store,
		jobs:   make(chan persistJob, queue),
		done:   make(chan struct{}),
		retry:  retry,
		ledger: ledger,
	}
	go p.run()
	return p
}

func (p *persister) run() {
	defer close(p.done)
	for job := range p.jobs {
		if job.recs == nil {
			if job.ack != nil {
				close(job.ack)
			}
			continue
		}
		err := p.retry.Retry(func() error { return p.store.AppendEpoch(job.recs) })
		if err != nil {
			p.ledger.markFailed(job.epoch, fmt.Sprintf("epoch %d: %v", job.epoch, err), false)
		} else {
			p.ledger.markPersisted(job.epoch)
		}
	}
}

// enqueue hands an epoch to the persister without ever blocking: a full
// queue marks the epoch unpersisted and moves on.
func (p *persister) enqueue(epoch uint32, recs []epochstore.Record) {
	if p.stopped {
		p.ledger.markFailed(epoch, fmt.Sprintf("epoch %d: persister stopped", epoch), false)
		return
	}
	select {
	case p.jobs <- persistJob{epoch: epoch, recs: recs}:
	default:
		p.ledger.markFailed(epoch, fmt.Sprintf("epoch %d: persist queue full", epoch), true)
	}
}

// barrier blocks until every job enqueued before it has been resolved.
// Unlike enqueue it waits for queue space: it is a drain, not a data path.
func (p *persister) barrier() {
	if p.stopped {
		return
	}
	ack := make(chan struct{})
	p.jobs <- persistJob{ack: ack}
	<-ack
}

// stop drains the queue and stops the goroutine. Idempotent.
func (p *persister) stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	close(p.jobs)
	<-p.done
}

// persistEpoch hands the closing epoch's read-out (HAVING applied —
// exactly what emitEpoch delivers, and the same immutable rows) to the
// persister. Never blocks.
func (e *Engine) persistEpoch(closed Degradation) {
	if e.persist == nil {
		return
	}
	epoch := closed.Epoch
	recs := make([]epochstore.Record, 0, len(e.queries))
	for i, q := range e.queries {
		rows := e.closing[i]
		rec := epochstore.Record{
			Epoch: epoch, Rel: q,
			Offered: closed.Offered, Processed: closed.Processed,
			Dropped: closed.Dropped, Late: closed.Late,
			Rows: make([]epochstore.Row, len(rows)),
		}
		for i := range rows {
			rec.Rows[i] = epochstore.Row{Key: rows[i].Key, Aggs: rows[i].Aggs}
		}
		recs = append(recs, rec)
	}
	e.persist.enqueue(epoch, recs)
}

// SyncStore blocks until every epoch handed to the persister so far has
// been resolved (persisted or recorded as failed). It does not stop the
// persister. No-op without a store.
func (e *Engine) SyncStore() {
	if e.persist != nil {
		e.persist.barrier()
	}
}

// Durability returns the durable-store accounting. Without a store it
// reports Enabled=false (and whatever ledger a restored checkpoint's
// footer carried).
func (e *Engine) Durability() Durability {
	return e.durable.snapshot(e.persist != nil)
}

// ReplayStore merges the attached store's persisted epochs back into the
// HFTA — the second half of a crash recovery: Restore rewinds the engine
// to the last checkpoint, ReplayStore re-hydrates every epoch the store
// kept, and the two together resume exactly (persisted epochs answer
// byte-identically to the original run). Records for (epoch, relation)
// pairs the engine already holds (checkpoint-retained rows) are skipped,
// so calling it after any Restore is safe. It also reconciles the
// durability ledger against the store's actual contents, which are
// authoritative over the checkpoint's footer.
func (e *Engine) ReplayStore() error {
	if e.persist == nil {
		return fmt.Errorf("core: no epoch store attached (Options.Store)")
	}
	st := e.persist.store
	err := st.Scan(func(rec *epochstore.Record) error {
		if _, known := e.specByRel[rec.Rel]; !known {
			return fmt.Errorf("core: store holds epoch %d of %v, not a workload query", rec.Epoch, rec.Rel)
		}
		// The store's decoder already refuses a key of the wrong arity;
		// the aggregate arity is the workload's, which only the engine
		// knows, and a mismatch would shear the HFTA's flat columns.
		if len(rec.Rows) > 0 && len(rec.Rows[0].Aggs) != len(e.aggs) {
			return fmt.Errorf("core: store holds epoch %d of %v with %d aggregates, workload has %d",
				rec.Epoch, rec.Rel, len(rec.Rows[0].Aggs), len(e.aggs))
		}
		if e.agg.GroupCount(rec.Rel, rec.Epoch) > 0 {
			return nil // already present (retained rows from the checkpoint)
		}
		for i := range rec.Rows {
			e.agg.MergeRun(rec.Rel, rec.Epoch, rec.Rows[i].Key, rec.Rows[i].Aggs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.reconcileStore()
	// The replayed epochs are in no record of the checkpoint log: the next
	// boundary writes a base image.
	e.ckptLog.drop()
	return nil
}

// reconcileStore rebuilds the durability ledger from the store's actual
// contents: a closed epoch counts as persisted iff every query relation's
// record is present.
func (e *Engine) reconcileStore() {
	st := e.persist.store
	l := e.persist.ledger
	l.mu.Lock()
	defer l.mu.Unlock()
	l.persisted = 0
	l.unpersisted = make(map[uint32]string)
	for _, ep := range e.hist.epochs {
		complete := true
		for _, q := range e.queries {
			if !st.Has(ep, q) {
				complete = false
				break
			}
		}
		if complete {
			l.persisted++
		} else {
			l.unpersisted[ep] = "missing from store after recovery"
		}
	}
}
