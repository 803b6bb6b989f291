package pipeline

import (
	"sync"
	"sync/atomic"

	"vprofile/internal/trace"
)

// recycler pools the pipeline's per-batch and per-record buffers so
// the steady-state hot path stops allocating. Batch slices are always
// pooled; raw/decoded record buffers when records is true, i.e. the
// source refills caller-owned raw records — an in-memory Source's
// records are its own and are never put back. A decoded record whose
// frame was traced is handed to the flight recorder instead of being
// put back (handOff): its decision retains the payload and samples.
//
// outstanding counts gets minus puts (and hand-offs) across every
// pooled object kind. It exists for leak accounting in tests: a
// replay that ends — cleanly, on a sink error, or abandoned mid-batch
// — must return every buffer it took, or an abandoned batch would
// strand its buffers (and, before this accounting existed, silently
// mask a stranded worker slot).
type recycler struct {
	batch   int
	records bool

	jobBatches    sync.Pool
	scoredBatches sync.Pool
	raws          sync.Pool
	recs          sync.Pool

	outstanding atomic.Int64
}

func newRecycler(batch int, records bool) *recycler {
	rc := &recycler{batch: batch, records: records}
	rc.jobBatches.New = func() any { return make([]job, 0, batch) }
	rc.scoredBatches.New = func() any { return make([]scored, 0, batch) }
	rc.raws.New = func() any { return new(trace.RawRecord) }
	rc.recs.New = func() any { return new(trace.Record) }
	return rc
}

func (rc *recycler) getJobBatch() []job {
	rc.outstanding.Add(1)
	return rc.jobBatches.Get().([]job)[:0]
}

func (rc *recycler) putJobBatch(b []job) {
	rc.outstanding.Add(-1)
	clear(b) // drop record/trace pointers so the pool retains nothing
	rc.jobBatches.Put(b[:0])
}

func (rc *recycler) getScoredBatch() []scored {
	rc.outstanding.Add(1)
	return rc.scoredBatches.Get().([]scored)[:0]
}

func (rc *recycler) putScoredBatch(b []scored) {
	rc.outstanding.Add(-1)
	clear(b)
	rc.scoredBatches.Put(b[:0])
}

func (rc *recycler) getRaw() *trace.RawRecord {
	rc.outstanding.Add(1)
	return rc.raws.Get().(*trace.RawRecord)
}

func (rc *recycler) putRaw(r *trace.RawRecord) {
	if r == nil {
		return
	}
	rc.outstanding.Add(-1)
	rc.raws.Put(r)
}

func (rc *recycler) getRec() *trace.Record {
	rc.outstanding.Add(1)
	return rc.recs.Get().(*trace.Record)
}

// putRec recycles a decoded record; a no-op for records the source
// owns (records false).
func (rc *recycler) putRec(r *trace.Record) {
	if r == nil || !rc.records {
		return
	}
	rc.outstanding.Add(-1)
	rc.recs.Put(r)
}

// handOff releases a pooled decoded record to a new owner for good —
// the flight recorder, whose decision retains it — without putting it
// back, so it leaves the leak accounting balanced.
func (rc *recycler) handOff(r *trace.Record) {
	if r == nil || !rc.records {
		return
	}
	rc.outstanding.Add(-1)
}

// releaseJobs returns an abandoned job batch and every pooled record
// buffer still travelling in it.
func (rc *recycler) releaseJobs(b []job) {
	for i := range b {
		rc.putRaw(b[i].raw)
		rc.putRec(b[i].rec)
	}
	rc.putJobBatch(b)
}

// releaseScored returns an abandoned scored batch and its record
// buffers (raw is nil by this stage; the decoded record may be pooled).
func (rc *recycler) releaseScored(b []scored) {
	for i := range b {
		rc.releaseScoredEntry(b[i])
	}
	rc.putScoredBatch(b)
}

// releaseScoredEntry returns the record buffers of one entry copied
// out of its batch (the reorder stage's pending map).
func (rc *recycler) releaseScoredEntry(s scored) {
	rc.putRaw(s.raw)
	rc.putRec(s.rec)
}
