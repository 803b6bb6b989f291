package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseReport = `{"records": 100, "runs": [
  {"name": "sequential", "frames_per_sec": 1000},
  {"name": "parallel4",  "frames_per_sec": 2000},
  {"name": "parallel8",  "frames_per_sec": 2500}
]}`

func TestGatePassesWithinLimit(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	// 5% down across the board: inside the 10% budget.
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "runs": [
	  {"name": "sequential", "frames_per_sec": 950},
	  {"name": "parallel4",  "frames_per_sec": 1900},
	  {"name": "parallel8",  "frames_per_sec": 2375}
	]}`)
	if err := gate(base, cand, 10, nil, 0, -1); err != nil {
		t.Fatalf("gate tripped on a 5%% drop: %v", err)
	}
}

func TestGateFailsOnSystemicDrop(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "runs": [
	  {"name": "sequential", "frames_per_sec": 800},
	  {"name": "parallel4",  "frames_per_sec": 1600},
	  {"name": "parallel8",  "frames_per_sec": 2000}
	]}`)
	if err := gate(base, cand, 10, nil, 0, -1); err == nil {
		t.Fatal("gate accepted a 20% systemic drop")
	}
}

func TestGateToleratesOneOutlier(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	// One config craters (noisy CI neighbour) but the median holds.
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "runs": [
	  {"name": "sequential", "frames_per_sec": 500},
	  {"name": "parallel4",  "frames_per_sec": 1980},
	  {"name": "parallel8",  "frames_per_sec": 2450}
	]}`)
	if err := gate(base, cand, 10, nil, 0, -1); err != nil {
		t.Fatalf("gate tripped on a single outlier: %v", err)
	}
}

func TestGateFasterCandidatePasses(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "runs": [
	  {"name": "sequential", "frames_per_sec": 1200},
	  {"name": "parallel4",  "frames_per_sec": 2400},
	  {"name": "parallel8",  "frames_per_sec": 3000}
	]}`)
	if err := gate(base, cand, 10, nil, 0, -1); err != nil {
		t.Fatalf("gate tripped on an improvement: %v", err)
	}
}

func TestGateRejectsDisjointReports(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "runs": [
	  {"name": "renamed", "frames_per_sec": 1000}
	]}`)
	if err := gate(base, cand, 10, nil, 0, -1); err == nil {
		t.Fatal("gate accepted reports with no shared configuration")
	}
}

// TestGateOverhead: every budgeted layer is gated on the candidate's
// overhead_pct — within budget passes, over budget fails, a layer
// named in -max-overhead but absent from the candidate is an error,
// and a layer without a budget is not gated.
func TestGateOverhead(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	for _, layer := range []string{"fleet", "incident", "drift", "socket"} {
		for _, tc := range []struct {
			name     string
			overhead string
			budgets  map[string]float64
			pass     bool
		}{
			{"within", fmt.Sprintf(`{%q: 3.2}`, layer), map[string]float64{layer: 5}, true},
			{"over", fmt.Sprintf(`{%q: 9.7}`, layer), map[string]float64{layer: 5}, false},
			{"absent", `{"metrics": 1.0}`, map[string]float64{layer: 5}, false},
			{"unbudgeted", fmt.Sprintf(`{%q: 9.7}`, layer), nil, true},
		} {
			t.Run(layer+"/"+tc.name, func(t *testing.T) {
				cand := writeReport(t, t.TempDir(), "cand.json", `{"records": 100, "overhead_pct": `+tc.overhead+`, "runs": [
				  {"name": "sequential", "frames_per_sec": 1000},
				  {"name": "parallel4",  "frames_per_sec": 2000},
				  {"name": "parallel8",  "frames_per_sec": 2500}
				]}`)
				err := gate(base, cand, 10, tc.budgets, 0, -1)
				if (err == nil) != tc.pass {
					t.Fatalf("overhead %s, budgets %v: err = %v, want pass=%v", tc.overhead, tc.budgets, err, tc.pass)
				}
				if err != nil && !strings.Contains(err.Error(), layer) {
					t.Fatalf("error does not name layer %s: %v", layer, err)
				}
			})
		}
	}
}

func TestParseBudgets(t *testing.T) {
	got, err := parseBudgets("fleet=5,incident=5,drift=2.5,socket=0")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"fleet": 5, "incident": 5, "drift": 2.5, "socket": 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseBudgets = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "drift", "drift=x", "=5", "drift=-1", "drift=NaN", "fleet=5,"} {
		if b, err := parseBudgets(bad); err == nil {
			t.Errorf("parseBudgets(%q) = %v, want an error", bad, b)
		}
	}
}

// TestGateRefusesUnlikeWorkloads: run names match across record counts
// and batch sizes, but their throughputs do not compare — the gate
// must refuse and say which field differs.
func TestGateRefusesUnlikeWorkloads(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	for field, body := range map[string]string{
		"records": `{"records": 1000, "runs": [{"name": "sequential", "frames_per_sec": 1000}]}`,
		"batch":   `{"records": 100, "batch": 1, "runs": [{"name": "sequential", "frames_per_sec": 1000}]}`,
	} {
		cand := writeReport(t, dir, field+".json", body)
		err := gate(base, cand, 10, nil, 0, -1)
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("candidate with a different %s: err = %v, want a refusal naming %q", field, err, field)
		}
	}
}

// TestGateSpeedupIgnoresSocketRuns: the plain-parallel speedup gate
// must not count socket-source runs — their speedup figure includes
// ingestion cost, not just pipeline scaling.
func TestGateSpeedupIgnoresSocketRuns(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	// The only runs above the 2.0x bar are socket runs; the sole plain
	// run is flat, so the gate must fail rather than credit ingestion
	// configs.
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "num_cpu": 4, "runs": [
	  {"name": "sequential", "frames_per_sec": 1000, "speedup_vs_sequential": 1.0},
	  {"name": "parallel4",  "workers": 4, "frames_per_sec": 1010, "speedup_vs_sequential": 1.01},
	  {"name": "parallel4+socket", "workers": 4, "layer": "socket", "frames_per_sec": 2500, "speedup_vs_sequential": 2.5}
	]}`)
	if err := gate(base, cand, 100, nil, 2.0, -1); err == nil {
		t.Fatal("speedup gate credited a socket-source run")
	}
}

// speedupReport is a multi-core candidate whose best plain parallel
// run (parallel4) reached 2.5x; parallel4+metrics is faster still but
// instrumented runs must not count toward the gate.
const speedupReport = `{"records": 100, "num_cpu": 4, "runs": [
  {"name": "sequential", "frames_per_sec": 1000, "speedup_vs_sequential": 1.0},
  {"name": "parallel4",  "workers": 4, "frames_per_sec": 2500, "speedup_vs_sequential": 2.5},
  {"name": "parallel4+metrics", "workers": 4, "layer": "metrics", "frames_per_sec": 2600, "speedup_vs_sequential": 2.6},
  {"name": "parallel8",  "workers": 8, "frames_per_sec": 2400, "speedup_vs_sequential": 2.4}
]}`

func TestGateParallelSpeedupPasses(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	cand := writeReport(t, dir, "cand.json", speedupReport)
	if err := gate(base, cand, 100, nil, 2.0, -1); err != nil {
		t.Fatalf("gate tripped on a 2.5x best speedup against a 2.0x minimum: %v", err)
	}
}

func TestGateParallelSpeedupFailsWhenFlat(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	// The historical failure mode: parallel runs at sequential speed.
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "num_cpu": 4, "runs": [
	  {"name": "sequential", "frames_per_sec": 1000, "speedup_vs_sequential": 1.0},
	  {"name": "parallel4",  "workers": 4, "frames_per_sec": 1010, "speedup_vs_sequential": 1.01},
	  {"name": "parallel8",  "workers": 8, "frames_per_sec": 990, "speedup_vs_sequential": 0.99}
	]}`)
	if err := gate(base, cand, 100, nil, 2.0, -1); err == nil {
		t.Fatal("gate accepted a flat parallel speedup on a 4-CPU host")
	}
}

func TestGateParallelSpeedupSkipsOnSingleCPU(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	// Same flat numbers, but the candidate ran on one CPU: the
	// expectation is physically meaningless there, so the gate must
	// skip rather than fail the PR for its runner's hardware.
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "num_cpu": 1, "runs": [
	  {"name": "sequential", "frames_per_sec": 1000, "speedup_vs_sequential": 1.0},
	  {"name": "parallel4",  "workers": 4, "frames_per_sec": 1010, "speedup_vs_sequential": 1.01}
	]}`)
	if err := gate(base, cand, 100, nil, 2.0, -1); err != nil {
		t.Fatalf("speedup gate did not skip on a single-CPU candidate: %v", err)
	}
}

const allocsBaseReport = `{"records": 100, "runs": [
  {"name": "sequential", "frames_per_sec": 1000, "allocs_per_frame": 40},
  {"name": "parallel4",  "frames_per_sec": 2000, "allocs_per_frame": 10},
  {"name": "parallel8",  "frames_per_sec": 2500, "allocs_per_frame": 10}
]}`

func TestGateAllocsWithinBudget(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", allocsBaseReport)
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "runs": [
	  {"name": "sequential", "frames_per_sec": 1000, "allocs_per_frame": 42},
	  {"name": "parallel4",  "frames_per_sec": 2000, "allocs_per_frame": 11},
	  {"name": "parallel8",  "frames_per_sec": 2500, "allocs_per_frame": 10.5}
	]}`)
	if err := gate(base, cand, 10, nil, 0, 25); err != nil {
		t.Fatalf("gate tripped on ~10%% median allocs growth under a 25%% budget: %v", err)
	}
}

func TestGateAllocsOverBudget(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", allocsBaseReport)
	// Allocations doubled across the board — a per-frame allocation
	// crept back into the pooled hot path.
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "runs": [
	  {"name": "sequential", "frames_per_sec": 1000, "allocs_per_frame": 80},
	  {"name": "parallel4",  "frames_per_sec": 2000, "allocs_per_frame": 20},
	  {"name": "parallel8",  "frames_per_sec": 2500, "allocs_per_frame": 20}
	]}`)
	if err := gate(base, cand, 10, nil, 0, 25); err == nil {
		t.Fatal("gate accepted a 100% allocs-per-frame growth against a 25% budget")
	}
	// Negative budget disables the allocation gate entirely.
	if err := gate(base, cand, 10, nil, 0, -1); err != nil {
		t.Fatalf("disabled allocs gate still tripped: %v", err)
	}
}

func TestGateAllocsSkipsOldBaseline(t *testing.T) {
	dir := t.TempDir()
	// A baseline from before the allocs_per_frame field: no meaningful
	// comparison exists, so the gate skips instead of dividing by zero
	// or failing the PR.
	base := writeReport(t, dir, "base.json", baseReport)
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "runs": [
	  {"name": "sequential", "frames_per_sec": 1000, "allocs_per_frame": 40},
	  {"name": "parallel4",  "frames_per_sec": 2000, "allocs_per_frame": 10},
	  {"name": "parallel8",  "frames_per_sec": 2500, "allocs_per_frame": 10}
	]}`)
	if err := gate(base, cand, 10, nil, 0, 25); err != nil {
		t.Fatalf("allocs gate did not skip on a baseline without the field: %v", err)
	}
}
