// Command perfbench is the repository benchmark. It drives the
// production entry points — engine.Session for batch replay,
// engine.NewFleet for the forensic fleet and controlserver.Daemon for
// live ingestion — on three workloads, checks every verdict against a
// sequential reference, and prints one JSON result line.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload replay-b --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics (see metrics.go for the
// layer → end-to-end map) and the tracing overhead. The line before
// the result records the host fingerprint and the workload seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	if os.Getenv(genEnv) != "" {
		genMain(os.Args[1:])
	}
	workload := flag.String("workload", "", "workload name: replay-b, fleet-forensic or live-daemon")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics")
	work := flag.String("work", ".bench_build", "scratch directory for captures, models, sockets and bundles")
	flag.Parse()
	opts := runOptions{
		workload: *workload, seed: *seed, seconds: float64(*seconds),
		trace: *traced == 1, size: 1,
	}
	res, info, err := runWorkload(*work, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	_ = out.Encode(info)
	_ = out.Encode(res)
}

// runOptions is one invocation's workload selection.
type runOptions struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// size scales the inputs; the self-test runs at 0, the minimum.
	size float64
}

// Metric is one named measurement with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Info is the line printed before the result: where and on what the
// numbers were measured.
type Info struct {
	Host     Host               `json:"host"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Samples  map[string]int     `json:"samples"`
	Extra    map[string]float64 `json:"extra,omitempty"`
}

// Host is the fingerprint every result carries.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	OS         string `json:"os_arch"`
}

func hostFingerprint() Host {
	return Host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: cpuModel(),
		OS: runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown"
// where that file does not exist).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runWorkload builds the inputs, runs the workload and assembles the
// result. Everything it writes lives in a fresh directory under work,
// removed on return.
func runWorkload(work string, o runOptions) (Result, Info, error) {
	spec, ok := workloads[o.workload]
	if !ok {
		return Result{}, Info{}, fmt.Errorf("unknown workload %q (replay-b, fleet-forensic, live-daemon)", o.workload)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return Result{}, Info{}, err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return Result{}, Info{}, err
	}
	defer os.RemoveAll(dir)
	// Unix socket paths are limited to ~108 bytes, so the run works
	// with paths relative to the current directory.
	if wd, err := os.Getwd(); err == nil && filepath.IsAbs(dir) {
		if rel, err := filepath.Rel(wd, dir); err == nil {
			dir = rel
		}
	}

	info := Info{
		Host: hostFingerprint(), Workload: o.workload, Seed: o.seed,
		Seconds: o.seconds, Trace: o.trace, Samples: map[string]int{}, Extra: map[string]float64{},
	}
	m := &measurement{info: &info, metrics: map[string]Metric{}}
	if err := spec.run(dir, o, m); err != nil {
		return Result{}, info, err
	}
	res := Result{
		Correct:   m.failed == 0 && m.attempted > 0 && m.mismatch == "",
		Attempted: m.attempted, Failed: m.failed, Metrics: map[string]Metric{},
	}
	if m.mismatch != "" {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", m.mismatch)
	}
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	for _, d := range names {
		v, ok := m.metrics[d.Name]
		if !ok {
			return Result{}, info, fmt.Errorf("workload %s did not measure %s", o.workload, d.Name)
		}
		res.Metrics[d.Name] = Metric{Value: v.Value, Unit: d.Unit}
	}
	return res, info, nil
}

// measurement collects one run's metrics and its correctness count.
type measurement struct {
	info      *Info
	metrics   map[string]Metric
	attempted int64
	failed    int64
	// mismatch, when set, names an output check that failed outside
	// the per-frame comparison (a drained tally, a generator that fell
	// behind); it makes the run incorrect.
	mismatch string
}

func (m *measurement) set(name string, v float64) {
	m.metrics[name] = Metric{Value: v, Unit: unitOf(name)}
}

func (m *measurement) fail(format string, args ...any) {
	if m.mismatch == "" {
		m.mismatch = fmt.Sprintf(format, args...)
	}
}
