// Command benchgate is the benchmark-regression gate: it compares a
// freshly generated replaybench report against the committed baseline
// (BENCH_pipeline.json) and fails when replay throughput regressed.
// Its `detect` subcommand is the detection-quality analogue, diffing
// vprofile arena reports (see detect.go).
//
// Usage:
//
//	benchgate -baseline BENCH_pipeline.json -candidate /tmp/bench.json [-max-drop 10] [-max-overhead fleet=5,drift=5]
//	benchgate detect -baseline DETECT_arena.json -candidate /tmp/arena.json [-max-tpr-drop 2] [-max-fpr-rise 1]
//
// For every configuration present in both reports it computes the
// throughput drop in percent (positive = candidate slower). The gate
// trips when the MEDIAN drop across configurations exceeds -max-drop:
// a real regression in the capture→verdict path slows most
// configurations together, while host noise on a shared CI runner
// scatters — one slow outlier must not block a PR, and one lucky fast
// run must not mask a systemic slowdown. The worst single
// configuration is still printed so a localized regression (say, only
// the fault-layer path) stays visible in the log even when the median
// passes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// report mirrors the subset of the replaybench schema the gate needs;
// unknown fields pass through untouched, so the two tools can evolve
// independently. OverheadPct is read only from the candidate: each
// layer's overhead is gated against an absolute budget rather than
// against the baseline.
type report struct {
	Records     int                `json:"records"`
	Batch       int                `json:"batch"`
	NumCPU      int                `json:"num_cpu"`
	OverheadPct map[string]float64 `json:"overhead_pct"`
	Runs        []run              `json:"runs"`
}

type run struct {
	Name           string  `json:"name"`
	Layer          string  `json:"layer"`
	Workers        int     `json:"workers"`
	Buses          int     `json:"buses"`
	FramesPerSec   float64 `json:"frames_per_sec"`
	Speedup        float64 `json:"speedup_vs_sequential"`
	AllocsPerFrame float64 `json:"allocs_per_frame"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "detect" {
		detectMain(os.Args[2:])
		return
	}
	baseline := flag.String("baseline", "BENCH_pipeline.json", "committed baseline report")
	candidate := flag.String("candidate", "", "freshly generated report to gate")
	maxDrop := flag.Float64("max-drop", 10, "maximum tolerated median throughput drop in percent")
	var maxOverhead map[string]float64
	flag.Func("max-overhead", "comma-separated layer=pct budgets (e.g. fleet=5,drift=5); every named layer must appear in the candidate's overhead_pct", func(s string) (err error) {
		maxOverhead, err = parseBudgets(s)
		return err
	})
	minSpeedup := flag.Float64("min-parallel-speedup", 0, "minimum speedup-vs-sequential the best plain parallel run must reach (0 disables; skipped with a notice when the candidate ran on < 2 CPUs)")
	maxAllocs := flag.Float64("max-allocs-growth", -1, "maximum tolerated median allocs-per-frame growth in percent (negative disables; skipped when the baseline predates the field)")
	flag.Parse()
	if *candidate == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -candidate is required")
		os.Exit(2)
	}
	if err := gate(*baseline, *candidate, *maxDrop, maxOverhead, *minSpeedup, *maxAllocs); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// parseBudgets parses the -max-overhead value: layer=pct pairs,
// comma-separated, each pct a non-negative number.
func parseBudgets(s string) (map[string]float64, error) {
	budgets := make(map[string]float64)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(pair, "=")
		pct, err := strconv.ParseFloat(val, 64)
		if !ok || name == "" || err != nil || !(pct >= 0) {
			return nil, fmt.Errorf("malformed budget %q: want layer=pct with pct >= 0", pair)
		}
		budgets[name] = pct
	}
	return budgets, nil
}

func load(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Runs) == 0 {
		return r, fmt.Errorf("%s: no runs", path)
	}
	return r, nil
}

func gate(basePath, candPath string, maxDrop float64, maxOverhead map[string]float64, minSpeedup, maxAllocs float64) error {
	base, err := load(basePath)
	if err != nil {
		return err
	}
	cand, err := load(candPath)
	if err != nil {
		return err
	}
	// Throughput and allocations are compared per run name, which only
	// means something when both sides replayed the same workload.
	if base.Records != cand.Records {
		return fmt.Errorf("records differ (baseline %d, candidate %d): refusing to gate unlike workloads", base.Records, cand.Records)
	}
	if base.Batch != cand.Batch {
		return fmt.Errorf("batch differs (baseline %d, candidate %d): refusing to gate unlike workloads", base.Batch, cand.Batch)
	}

	baseBy := make(map[string]float64, len(base.Runs))
	for _, r := range base.Runs {
		if r.FramesPerSec > 0 {
			baseBy[r.Name] = r.FramesPerSec
		}
	}

	type delta struct {
		name string
		drop float64 // percent; positive = candidate slower
	}
	var deltas []delta
	for _, r := range cand.Runs {
		b, ok := baseBy[r.Name]
		if !ok || r.FramesPerSec <= 0 {
			continue
		}
		deltas = append(deltas, delta{r.Name, 100 * (b - r.FramesPerSec) / b})
	}
	if len(deltas) == 0 {
		return fmt.Errorf("no configuration appears in both %s and %s — did the run names change?", basePath, candPath)
	}

	sort.Slice(deltas, func(i, j int) bool { return deltas[i].drop > deltas[j].drop })
	for _, d := range deltas {
		mark := " "
		if d.drop > maxDrop {
			mark = "!"
		}
		fmt.Printf("%s %-22s %+7.2f%%\n", mark, d.name, -d.drop)
	}
	median := deltas[len(deltas)/2].drop
	worst := deltas[0]
	fmt.Printf("benchgate: %d configs compared, median drop %.2f%%, worst %.2f%% (%s), limit %.0f%%\n",
		len(deltas), median, worst.drop, worst.name, maxDrop)
	if median > maxDrop {
		return fmt.Errorf("median throughput dropped %.2f%% vs %s (limit %.0f%%)", median, basePath, maxDrop)
	}

	// The overhead gates are absolute: replaybench paired each layer's
	// runs with their base runs inside one sweep, so host speed cancels
	// and no baseline comparison is needed. A budgeted layer missing
	// from the candidate is an error, not a skip, so a renamed or
	// dropped table row cannot silently disarm its gate.
	layers := make([]string, 0, len(maxOverhead))
	for l := range maxOverhead {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var over []string
	for _, l := range layers {
		pct, ok := cand.OverheadPct[l]
		if !ok {
			return fmt.Errorf("layer %q has a -max-overhead budget but no overhead_pct in %s", l, candPath)
		}
		fmt.Printf("benchgate: %s overhead %.2f%%, limit %.0f%%\n", l, pct, maxOverhead[l])
		if pct > maxOverhead[l] {
			over = append(over, fmt.Sprintf("%s %.2f%% > %.0f%%", l, pct, maxOverhead[l]))
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("layer overhead over budget: %s", strings.Join(over, ", "))
	}

	// The parallel-speedup gate is the guard against the flat-speedup
	// failure mode this repo once shipped: a report where every
	// parallel configuration ran at the same throughput as sequential
	// because the harness never raised GOMAXPROCS. It takes the BEST
	// speedup among plain parallel runs (no layer, single bus) — the gate asks "can the pipeline scale at all", not "does
	// every worker count scale". On a single-core runner a parallel
	// speedup expectation is physically meaningless, so the gate skips
	// loudly rather than fail a PR for the hardware it landed on.
	if minSpeedup > 0 {
		if cand.NumCPU < 2 {
			fmt.Printf("benchgate: SKIPPING parallel-speedup gate — candidate ran on %d CPU(s); need >= 2 for real parallelism\n", cand.NumCPU)
		} else {
			bestSpeedup, bestName := 0.0, ""
			for _, r := range cand.Runs {
				if r.Workers > 1 && r.Layer == "" && r.Buses <= 1 && r.Speedup > bestSpeedup {
					bestSpeedup, bestName = r.Speedup, r.Name
				}
			}
			if bestName == "" {
				return fmt.Errorf("no plain parallel run in %s to gate the speedup on", candPath)
			}
			fmt.Printf("benchgate: best parallel speedup %.2fx (%s), minimum %.2fx\n", bestSpeedup, bestName, minSpeedup)
			if bestSpeedup < minSpeedup {
				return fmt.Errorf("best parallel speedup %.2fx (%s) is below the %.2fx minimum — the pipeline is not scaling", bestSpeedup, bestName, minSpeedup)
			}
		}
	}

	// The allocation gate compares allocs-per-frame per configuration
	// and trips on the median growth, mirroring the throughput gate's
	// noise reasoning. Baselines predating the field decode to zero —
	// no meaningful comparison exists, so the gate skips loudly until
	// the baseline is regenerated.
	if maxAllocs >= 0 {
		baseAllocs := make(map[string]float64, len(base.Runs))
		for _, r := range base.Runs {
			if r.AllocsPerFrame > 0 {
				baseAllocs[r.Name] = r.AllocsPerFrame
			}
		}
		var growths []float64
		for _, r := range cand.Runs {
			b, ok := baseAllocs[r.Name]
			if !ok || r.AllocsPerFrame <= 0 {
				continue
			}
			growths = append(growths, 100*(r.AllocsPerFrame-b)/b)
		}
		if len(growths) == 0 {
			fmt.Printf("benchgate: SKIPPING allocs-per-frame gate — %s has no allocs_per_frame data (regenerate the baseline)\n", basePath)
		} else {
			sort.Float64s(growths)
			medGrowth := growths[len(growths)/2]
			fmt.Printf("benchgate: %d configs compared on allocs/frame, median growth %.2f%%, limit %.0f%%\n", len(growths), medGrowth, maxAllocs)
			if medGrowth > maxAllocs {
				return fmt.Errorf("median allocs-per-frame grew %.2f%% vs %s (limit %.0f%%) — a per-frame allocation crept into the hot path", medGrowth, basePath, maxAllocs)
			}
		}
	}
	return nil
}
