package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestFailedRunKeepsOutput: a run rejected for its arguments must
// leave an existing report untouched — with make bench that file is
// the committed baseline.
func TestFailedRunKeepsOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_pipeline.json")
	const old = `{"records": 10000}`
	if err := os.WriteFile(out, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][2]int{{200, 0}, {0, 1}} {
		err := run(out, args[0], args[1], 0, 2)
		if got, _ := os.ReadFile(out); string(got) != old {
			t.Errorf("records=%d repeat=%d: output clobbered to %q", args[0], args[1], got)
		}
		if !errors.Is(err, errUsage) {
			t.Errorf("records=%d repeat=%d: err = %v, want a usage error", args[0], args[1], err)
		}
	}
}

// TestSweepReportsEveryLayer runs the whole table at minimum size:
// every row must appear at each of its worker counts, and every layer
// must carry a finite overhead against a base run that exists.
func TestSweepReportsEveryLayer(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(out, 200, 1, 0, 2); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	runs := make(map[string]Run, len(rep.Runs))
	for _, r := range rep.Runs {
		runs[r.Name] = r
	}
	for _, l := range table {
		for _, w := range l.workers {
			r, ok := runs[l.runName(w)]
			if !ok {
				t.Errorf("run %s missing from the report", l.runName(w))
				continue
			}
			if l.base == nil {
				continue
			}
			if _, ok := runs[l.base.runName(w)]; !ok {
				t.Errorf("%s: base run %s missing", r.Name, l.base.runName(w))
			}
			if r.Layer != l.name || r.OverheadPct == nil || math.IsInf(*r.OverheadPct, 0) || math.IsNaN(*r.OverheadPct) {
				t.Errorf("%s: layer %q, overhead %v", r.Name, r.Layer, r.OverheadPct)
			}
		}
		if pct, ok := rep.OverheadPct[l.name]; l.base != nil && (!ok || math.IsInf(pct, 0) || math.IsNaN(pct)) {
			t.Errorf("layer %s: overhead_pct %v (present %v)", l.name, pct, ok)
		}
	}
}

var (
	benchOnce sync.Once
	benchFx   *fixture
	benchErr  error
)

// BenchmarkReplay runs every configuration of the sweep as a
// sub-benchmark over the standard 10k-record fixture:
//
//	go test -bench Replay -benchmem -run '^$' ./cmd/replaybench
func BenchmarkReplay(b *testing.B) {
	benchOnce.Do(func() { benchFx, benchErr = newFixture(10000) })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	for _, c := range sweep() {
		b.Run(c.name, func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				d, _, err := replay(benchFx, c.l, c.workers, 0)
				if err != nil {
					b.Fatal(err)
				}
				total += d
			}
			b.ReportMetric(float64(b.N*benchFx.records*max(c.l.buses, 1))/total.Seconds(), "frames/s")
		})
	}
}
