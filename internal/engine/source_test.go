package engine_test

import (
	"bytes"
	"io"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"vprofile/internal/engine"
	"vprofile/internal/trace"
)

// TestSessionSnapshotMidStream streams a capture through a pipe,
// pauses the feed halfway, and snapshots the live session from
// another goroutine — the daemon's status path. The snapshot must
// show progress mid-stream and settle to the final summary once the
// run completes.
func TestSessionSnapshotMidStream(t *testing.T) {
	m := sharedModel(t)
	data := buildCapture(t, 201, 700, 250)

	pr, pw := io.Pipe()
	resume := make(chan struct{})
	go func() {
		half := len(data) / 2
		if _, err := pw.Write(data[:half]); err != nil {
			return
		}
		<-resume
		_, _ = pw.Write(data[half:])
		pw.Close()
	}()

	src, err := engine.NewStreamSource("pipe", pr)
	if err != nil {
		t.Fatal(err)
	}
	sess := engine.NewSession("",
		engine.WithSource(src),
		engine.WithModel(m),
		engine.WithQuarantine(true),
	)
	var frames atomic.Int64
	type runResult struct {
		sum engine.Summary
		err error
	}
	done := make(chan runResult, 1)
	go func() {
		sum, err := sess.Run(func(res engine.Result) error {
			frames.Add(1)
			return nil
		})
		done <- runResult{sum, err}
	}()

	// The feed is stalled at the half-way mark, so a live snapshot
	// with partial progress is guaranteed to be observable.
	deadline := time.Now().Add(20 * time.Second)
	var mid engine.Summary
	for {
		mid = sess.Snapshot()
		if mid.Live && mid.Stats.RecordsOut > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never observed a live snapshot with progress: %+v", mid)
		}
		time.Sleep(time.Millisecond)
	}
	if mid.ModelVersion != 1 {
		t.Errorf("mid-stream model version = %d", mid.ModelVersion)
	}

	close(resume)
	r := <-done
	if r.err != nil {
		t.Fatalf("run failed: %v", r.err)
	}
	if mid.Stats.RecordsOut >= r.sum.Stats.RecordsOut {
		t.Errorf("mid-stream snapshot saw %d records, final %d — snapshot was not mid-stream",
			mid.Stats.RecordsOut, r.sum.Stats.RecordsOut)
	}
	if int64(r.sum.Stats.RecordsOut) != frames.Load() {
		t.Errorf("sink got %d results, stats say %d", frames.Load(), r.sum.Stats.RecordsOut)
	}

	// After completion the snapshot is the final summary, not live.
	final := sess.Snapshot()
	if final.Live {
		t.Error("completed session still reports live")
	}
	if final.Stats.RecordsOut != r.sum.Stats.RecordsOut ||
		final.DegradedSAs != r.sum.DegradedSAs ||
		final.ModelVersion != r.sum.ModelVersion {
		t.Errorf("final snapshot differs from the returned summary:\nsnap %+v\nsum  %+v", final, r.sum)
	}
	if r.sum.DegradedSAs == 0 {
		t.Error("attack capture with quarantine degraded no SAs")
	}
}

// TestStreamSourceStopBeforeRun: a session whose source is stopped
// before Run begins drains immediately with an empty summary instead
// of blocking on the feed.
func TestStreamSourceStopBeforeRun(t *testing.T) {
	m := sharedModel(t)
	data := buildCapture(t, 201, 120, 10)
	pr, pw := io.Pipe()
	go func() {
		_, _ = pw.Write(data)
		// Feed stays open: only the Stop ends the session.
	}()
	src, err := engine.NewStreamSource("pipe", pr)
	if err != nil {
		t.Fatal(err)
	}
	src.Stop()
	sess := engine.NewSession("", engine.WithSource(src), engine.WithModel(m))
	sum, err := sess.Run(nil)
	if err != nil {
		t.Fatalf("stopped source aborted the run: %v", err)
	}
	if sum.Stats.RecordsOut != 0 {
		t.Fatalf("stopped source still replayed %d records", sum.Stats.RecordsOut)
	}
	pw.Close()
}

// TestSessionRecyclesRecordBuffers pins the session's record
// lifecycle: replaying a capture file recycles the decoded records, so
// the heap bytes allocated per frame stay well under one decoded
// trace. A replay that allocated a fresh record per frame would spend
// at least a full trace (8 bytes per sample) on every one.
func TestSessionRecyclesRecordBuffers(t *testing.T) {
	m := sharedModel(t)
	data := buildCapture(t, 211, 1500, 100)
	path := writeFile(t, filepath.Join(t.TempDir(), "c.vptr"), data)
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	first, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	traceBytes := 8 * len(first.Trace)

	// A small batch keeps the records in flight (and so the pool's
	// warm-up) a small share of the replay.
	sess := engine.NewSession(path, engine.WithModel(m), engine.WithWorkers(2), engine.WithBatch(4))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sum, err := sess.Run(func(engine.Result) error { return nil })
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	frames := sum.Stats.RecordsOut
	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / float64(frames)
	t.Logf("%d frames, %.0f bytes allocated per frame, decoded trace %d bytes", frames, perFrame, traceBytes)
	// Half a trace, not less: the race detector makes sync.Pool drop a
	// quarter of its puts, which alone costs about a third of a trace.
	if perFrame > float64(traceBytes)/2 {
		t.Fatalf("replay allocated %.0f bytes per frame; a decoded trace is %d bytes, so records are not being recycled", perFrame, traceBytes)
	}
}
