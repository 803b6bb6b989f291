// Command replaybench seeds the repository's performance trajectory:
// it generates the standard 10k-record Vehicle B capture, replays it
// through every row of the layer table below — the plain sequential
// and 1/2/4/8-worker pipeline, each observability or fleet layer
// stacked on top of its paired base — and writes the results, plus
// each layer's measured overhead, to a JSON file that CI and future
// PRs can diff (cmd/benchgate enforces the diff).
//
// Usage:
//
//	replaybench -out BENCH_pipeline.json [-records 10000] [-repeat 15] [-batch 0] [-gomaxprocs 0]
//
// Each configuration runs repeat times and reports its best run:
// host interference only ever slows a run, so with enough repeats
// every configuration's minimum converges to its true cost and the
// overhead ratios measure instrumentation rather than noise.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"vprofile/internal/core"
	"vprofile/internal/engine"
	"vprofile/internal/experiments"
	"vprofile/internal/ids"
	"vprofile/internal/obs"
	"vprofile/internal/obs/drift"
	"vprofile/internal/obs/incident"
	"vprofile/internal/obs/tracing"
	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

// Run is one benchmark configuration's result.
type Run struct {
	Name    string  `json:"name"`
	Layer   string  `json:"layer,omitempty"` // table row; "" on the base rows
	Workers int     `json:"workers"`         // 0 = sequential reference path
	Buses   int     `json:"buses,omitempty"` // >1 on fleet rows
	Seconds float64 `json:"seconds"`
	// FramesPerSec counts frames across every bus of the run.
	FramesPerSec float64 `json:"frames_per_sec"`
	// AllocsPerFrame is the heap-allocation count per replayed frame
	// (runtime Mallocs delta over the run, minimum across repeats —
	// concurrent GC noise only ever inflates it). The pipeline always
	// recycles its record buffers, so regressions here mean a new
	// per-frame allocation crept into the hot path.
	AllocsPerFrame      float64 `json:"allocs_per_frame"`
	SpeedupVsSequential float64 `json:"speedup_vs_sequential"`
	// OverheadPct compares this run against its layer's paired base
	// run of the same worker count, each side taken as its
	// best-of-repeat time.
	OverheadPct *float64 `json:"overhead_pct,omitempty"`
}

// Report is the BENCH_pipeline.json schema.
type Report struct {
	Records   int    `json:"records"`
	Repeat    int    `json:"repeat"`
	Batch     int    `json:"batch"` // pipeline batch size (0 = default)
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// GOMAXPROCS is the setting the runs executed under (the
	// -gomaxprocs flag after defaulting); NumCPU is the machine's
	// actual core count. On a single-core host GOMAXPROCS may exceed
	// NumCPU — the parallel runs then interleave by timeslicing, and
	// consumers (cmd/benchgate) use NumCPU to decide whether a
	// parallel-speedup expectation is physically meaningful.
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	GeneratedAt string `json:"generated_at"`
	Runs        []Run  `json:"runs"`
	// OverheadPct maps each layer to the median of its runs'
	// overheads across worker counts. Median rather than worst keeps
	// one noisy run on a loaded host from misstating the cost.
	OverheadPct map[string]float64 `json:"overhead_pct"`
}

// layer is one row of the benchmark table: a configuration replayed
// at each of its worker counts. A row with a base stacks its apply
// hook on top of the base's set-up, so the pair's time ratio prices
// exactly what apply adds.
type layer struct {
	name    string // key in Report.OverheadPct; "" on a base-only row
	suffix  string // appended to the run name
	stem    string // run-name stem of a multi-bus row
	base    *layer
	buses   int
	workers []int // 0 = pipeline.Sequential
	apply   func(*rig) error
}

var (
	// plain is every single-bus row's base: the pipeline delivering to
	// a no-op per-record sink, as every production caller has a sink.
	plain = &layer{workers: []int{0, 1, 2, 4, 8}}
	// indep replays two buses on independent private pools; fleet is
	// the same two buses on one shared pool of the same total width,
	// so the pair prices the sharing mechanism (dispatcher + submit
	// contention), not worker-count differences.
	indep = &layer{stem: "indep", buses: 2, workers: []int{1, 4}}
	fleet = &layer{name: "fleet", stem: "fleet", base: indep, buses: 2, workers: []int{1, 4}, apply: sharePool}

	table = []*layer{
		plain,
		{name: "metrics", suffix: "+metrics", base: plain, workers: []int{0, 1, 2, 4, 8}, apply: withMetrics},
		{name: "flight", suffix: "+flight", base: plain, workers: []int{1, 4, 8}, apply: withFlight},
		{name: "faults", suffix: "+faults", base: plain, workers: []int{1, 4, 8}, apply: withFaults},
		{name: "drift", suffix: "+drift", base: plain, workers: []int{1, 4, 8}, apply: withDrift},
		{name: "socket", suffix: "+socket", base: plain, workers: []int{1, 4, 8}, apply: viaSocket},
		indep,
		fleet,
		{name: "incident", suffix: "+incidents", stem: "fleet", base: fleet, buses: 2, workers: []int{1, 4}, apply: correlate},
	}
)

// runName names one run of the row. BENCH_pipeline.json's history is
// keyed by these names, so they must stay stable.
func (l *layer) runName(workers int) string {
	switch {
	case l.buses > 1:
		return fmt.Sprintf("%s%dx%d%s", l.stem, l.buses, workers, l.suffix)
	case workers == 0:
		return "sequential" + l.suffix
	}
	return fmt.Sprintf("parallel%d%s", workers, l.suffix)
}

// setup applies the base chain's hooks, then the row's own.
func (l *layer) setup(r *rig) error {
	if l.base != nil {
		if err := l.base.setup(r); err != nil {
			return err
		}
	}
	if l.apply == nil {
		return nil
	}
	return l.apply(r)
}

// rig is one replay's set-up: the buses it drives, which a layer's
// apply hook adjusts before the timed run, and what to release after.
type rig struct {
	fx       *fixture
	buses    []*bus
	cleanups []func() // run in reverse after the timed run
}

type bus struct {
	name string
	rd   *trace.Reader
	cfg  pipeline.Config
	comp ids.CompositeConfig
	mon  *ids.Composite // built from comp once every hook has run
	sink pipeline.Sink
}

func (r *rig) cleanup(f func()) { r.cleanups = append(r.cleanups, f) }

func withMetrics(r *rig) error {
	for _, b := range r.buses {
		reg := obs.NewRegistry()
		b.cfg.Metrics = pipeline.NewMetrics(reg)
		b.comp.Metrics = ids.NewMetrics(reg)
		b.rd.SetMetrics(trace.NewMetrics(reg))
	}
	return nil
}

// withFlight adds per-frame tracing and an in-memory flight recorder
// (no Dir): the steady-state span + ring-buffer cost, not bundle IO —
// the fixture traffic is clean, so no bundles would be cut anyway.
func withFlight(r *rig) error {
	for _, b := range r.buses {
		rec, err := tracing.NewRecorder(tracing.RecorderConfig{})
		if err != nil {
			return err
		}
		r.cleanup(func() { _ = rec.Close() })
		b.cfg.Recorder = rec
	}
	return nil
}

// withFaults turns the degraded-mode layer on at zero fault intensity:
// the reader scans for corruption it never finds, the quarantine
// machine scores frames that are never suspicious. This is the cost a
// hardened deployment pays on a healthy bus.
func withFaults(r *rig) error {
	for _, b := range r.buses {
		b.rd.EnableRecovery()
		b.comp.Quarantine = &ids.QuarantineConfig{}
	}
	return nil
}

// withDrift feeds every verdict to a per-SA drift monitor through the
// engine's own projection.
func withDrift(r *rig) error {
	store, err := engine.NewModelStore(r.fx.model)
	if err != nil {
		return err
	}
	for _, b := range r.buses {
		mon, inner := drift.NewMonitor(drift.Config{}), b.sink
		b.sink = func(res pipeline.Result) error {
			engine.ObserveDrift(mon, store, res)
			return inner(res)
		}
	}
	return nil
}

// viaSocket streams the capture through a loopback unix socket — the
// daemon's live-ingestion shape: a writer goroutine feeds the
// connection while the pipeline reads it. Everything downstream of
// the reader is the same as the base run, so the pair prices socket
// ingestion (syscalls plus the cross-goroutine copy) alone.
func viaSocket(r *rig) error {
	for _, b := range r.buses {
		dir, err := os.MkdirTemp("", "replaybench")
		if err != nil {
			return err
		}
		r.cleanup(func() { _ = os.RemoveAll(dir) })
		ln, err := net.Listen("unix", filepath.Join(dir, "ingest.sock"))
		if err != nil {
			return err
		}
		// Cleanup runs in reverse: closing the client connection and
		// the listener unblocks the writer, then it is waited for.
		done := make(chan struct{})
		r.cleanup(func() { <-done })
		r.cleanup(func() { _ = ln.Close() })
		go func() {
			defer close(done)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_, _ = io.Copy(conn, bytes.NewReader(r.fx.capture))
			_ = conn.Close()
		}()
		conn, err := net.Dial("unix", ln.Addr().String())
		if err != nil {
			return err
		}
		r.cleanup(func() { _ = conn.Close() })
		if b.rd, err = trace.NewReader(conn); err != nil {
			return err
		}
	}
	return nil
}

// sharePool puts every bus on one pool of the buses' total width.
func sharePool(r *rig) error {
	pool := pipeline.NewPool(len(r.buses) * r.buses[0].cfg.Workers)
	r.cleanup(pool.Close)
	for _, b := range r.buses {
		b.cfg.Pool = pool
	}
	return nil
}

// correlate feeds every bus's verdicts to one incident correlator
// through the engine's own evidence projection. The clean fixture
// raises no alarms, so this prices the hot-path Observe alone.
func correlate(r *rig) error {
	corr := incident.New(incident.Config{CorrelateBuses: 2})
	r.cleanup(func() { corr.CloseOut() })
	for _, b := range r.buses {
		stream, inner := corr.Bus(b.name), b.sink
		b.sink = func(res pipeline.Result) error {
			stream.Observe(engine.IncidentEvidence(res))
			return inner(res)
		}
	}
	return nil
}

// replay runs one row at one worker count and returns the wall time of
// the run — every bus replayed concurrently, set-up and cleanup
// excluded — and its heap allocations per frame.
func replay(fx *fixture, l *layer, workers, batch int) (time.Duration, float64, error) {
	r := &rig{fx: fx, buses: make([]*bus, max(l.buses, 1))}
	defer func() {
		for i := len(r.cleanups) - 1; i >= 0; i-- {
			r.cleanups[i]()
		}
	}()
	for i := range r.buses {
		rd, err := trace.NewReader(bytes.NewReader(fx.capture))
		if err != nil {
			return 0, 0, err
		}
		r.buses[i] = &bus{
			name: fmt.Sprintf("bus%d", i),
			rd:   rd,
			cfg:  pipeline.Config{Workers: workers, Batch: batch},
			comp: ids.CompositeConfig{Extraction: fx.v.ExtractionConfig()},
			sink: func(pipeline.Result) error { return nil },
		}
	}
	if err := l.setup(r); err != nil {
		return 0, 0, err
	}
	for _, b := range r.buses {
		var err error
		if b.mon, err = ids.NewComposite(fx.model, b.comp); err != nil {
			return 0, 0, err
		}
	}

	errs := make([]error, len(r.buses))
	m0 := mallocsNow()
	start := time.Now()
	var wg sync.WaitGroup
	for i, b := range r.buses {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st pipeline.Stats
			if workers == 0 {
				st, errs[i] = pipeline.Sequential(b.rd, b.mon, b.sink)
			} else {
				st, errs[i] = pipeline.Replay(b.rd, b.mon, b.cfg, b.sink)
			}
			if errs[i] == nil && st.RecordsOut != int64(fx.records) {
				errs[i] = fmt.Errorf("%s replayed %d of %d records", b.name, st.RecordsOut, fx.records)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	allocs := float64(mallocsNow()-m0) / float64(fx.records*len(r.buses))
	return elapsed, allocs, errors.Join(errs...)
}

// mallocsNow reads the runtime's cumulative heap-allocation counter.
func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// fixture is the capture and trained model every replay shares.
type fixture struct {
	capture []byte
	records int
	model   *core.Model
	v       *vehicle.Vehicle
}

func newFixture(records int) (*fixture, error) {
	v := vehicle.NewVehicleB()
	train, err := experiments.CollectSamples(v, 1500, 7, nil, v.ExtractionConfig())
	if err != nil {
		return nil, err
	}
	model, err := core.Train(experiments.CoreSamples(train), core.TrainConfig{
		Metric: core.Mahalanobis, SAMap: v.SAMap(),
	})
	if err != nil {
		return nil, err
	}
	val, err := experiments.CollectSamples(v, 800, 8, nil, v.ExtractionConfig())
	if err != nil {
		return nil, err
	}
	margin, _ := experiments.OptimizeMargin(experiments.FalsePositiveRecords(model, val), experiments.MaxAccuracy)
	model.Margin = margin * 1.5

	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Vehicle: v.Name, BitRate: v.BitRate, ADC: v.ADC})
	if err != nil {
		return nil, err
	}
	err = v.Stream(vehicle.GenConfig{NumMessages: records, Seed: 99, DiagnosticTraffic: true}, func(m vehicle.Message) error {
		return w.Write(&trace.Record{
			ECUIndex: int32(m.ECUIndex),
			TimeSec:  m.TimeSec,
			FrameID:  m.Frame.ID,
			Data:     m.Frame.Data,
			Trace:    m.Trace,
		})
	})
	if err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return &fixture{capture: buf.Bytes(), records: records, model: model, v: v}, nil
}

// config is one run of the sweep: a table row at one worker count.
type config struct {
	l       *layer
	workers int
	name    string
}

// sweep lists every run of the table, ordered by bus count and worker
// count so each run executes directly after the base run it is
// compared against, under (nearly) the same host conditions.
func sweep() []config {
	var cs []config
	for _, l := range table {
		for _, w := range l.workers {
			cs = append(cs, config{l, w, l.runName(w)})
		}
	}
	sort.SliceStable(cs, func(i, j int) bool {
		if cs[i].l.buses != cs[j].l.buses {
			return cs[i].l.buses < cs[j].l.buses
		}
		return cs[i].workers < cs[j].workers
	})
	return cs
}

var errUsage = errors.New("usage")

func main() {
	out := flag.String("out", "BENCH_pipeline.json", "output JSON file")
	records := flag.Int("records", 10000, "capture size in records")
	repeat := flag.Int("repeat", 15, "runs per configuration (best is reported)")
	batch := flag.Int("batch", 0, "pipeline batch size (0 = the pipeline default)")
	procs := flag.Int("gomaxprocs", 0, "GOMAXPROCS for the whole benchmark, 0 = NumCPU (set >= 2 explicitly on a single-core host to benchmark by timeslicing)")
	flag.Parse()
	if err := run(*out, *records, *repeat, *batch, *procs); err != nil {
		fmt.Fprintln(os.Stderr, "replaybench:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(out string, records, repeat, batch, procs int) error {
	if records < 1 || repeat < 1 {
		return fmt.Errorf("%w: -records and -repeat must be >= 1 (got %d and %d)", errUsage, records, repeat)
	}
	if procs <= 0 {
		procs = runtime.NumCPU()
	}
	// Refuse to publish a report whose parallel configurations ran at
	// GOMAXPROCS=1: every speedup would be ≈1.0 by construction and
	// the numbers would look like a regression (or mask a real one).
	// On a single-core host, pass -gomaxprocs >= 2 explicitly to
	// measure the timesliced pipeline instead.
	if procs < 2 {
		return fmt.Errorf("parallel configurations would run at GOMAXPROCS=%d and cannot measure parallelism; set -gomaxprocs >= 2 (this host has %d CPU(s))", procs, runtime.NumCPU())
	}
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	fmt.Fprintf(os.Stderr, "replaybench: generating %d-record fixture (GOMAXPROCS=%d, NumCPU=%d)...\n", records, procs, runtime.NumCPU())
	fx, err := newFixture(records)
	if err != nil {
		return err
	}

	// Interleave the runs round-robin across every configuration
	// rather than finishing one before starting the next: host noise
	// (a shared or thermally-throttled box) then lands on all configs
	// alike, so the best-of comparison of a layer against its base
	// stays fair. Each pass also starts at a different offset, so no
	// configuration is pinned to the start or end of the process,
	// where turbo decay or heap growth would bias it the same way
	// every pass.
	configs := sweep()
	best := make(map[string]time.Duration, len(configs))
	bestAllocs := make(map[string]float64, len(configs))
	for i := 0; i < repeat; i++ {
		off := i * len(configs) / repeat
		for j := range configs {
			c := configs[(j+off)%len(configs)]
			d, allocs, err := replay(fx, c.l, c.workers, batch)
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			if cur, ok := best[c.name]; !ok || d < cur {
				best[c.name] = d
			}
			// Minimum across repeats, like the times: concurrent GC and
			// background goroutines only ever add allocations.
			if cur, ok := bestAllocs[c.name]; !ok || allocs < cur {
				bestAllocs[c.name] = allocs
			}
		}
	}

	report := Report{
		Records:     records,
		Repeat:      repeat,
		Batch:       batch,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		OverheadPct: make(map[string]float64),
	}
	// A layer's overhead is the ratio of best-of-repeat times. Host
	// interference is one-sided — a neighbouring process only ever
	// slows a run — so with enough repeats each minimum converges to
	// the config's true cost and the ratio measures the layer, not
	// noise. (Per-pass paired ratios were tried and are worse: a
	// single 0.2s run swings several percent, and a median of few
	// noisy ratios inherits that swing.)
	seqBase := best["sequential"].Seconds()
	overheads := make(map[string][]float64)
	for _, c := range configs {
		sec := best[c.name].Seconds()
		fps := float64(records*max(c.l.buses, 1)) / sec
		r := Run{
			Name:                c.name,
			Layer:               c.l.name,
			Workers:             c.workers,
			Buses:               c.l.buses,
			Seconds:             sec,
			FramesPerSec:        fps,
			AllocsPerFrame:      bestAllocs[c.name],
			SpeedupVsSequential: fps / (float64(records) / seqBase),
		}
		if c.l.base != nil {
			base := best[c.l.base.runName(c.workers)].Seconds()
			pct := 100 * (sec - base) / base
			r.OverheadPct = &pct
			overheads[c.l.name] = append(overheads[c.l.name], pct)
		}
		report.Runs = append(report.Runs, r)
		fmt.Fprintf(os.Stderr, "replaybench: %-20s %8.3fs  %9.0f frames/s  %6.1f allocs/frame\n",
			r.Name, sec, fps, r.AllocsPerFrame)
	}
	for name, pcts := range overheads {
		sort.Float64s(pcts)
		report.OverheadPct[name] = pcts[len(pcts)/2]
	}
	if err := writeReport(out, report); err != nil {
		return err
	}
	for _, l := range table {
		if l.base != nil {
			fmt.Fprintf(os.Stderr, "replaybench: %-8s overhead %6.2f%%\n", l.name, report.OverheadPct[l.name])
		}
	}
	fmt.Fprintf(os.Stderr, "replaybench: wrote %s\n", out)
	return nil
}

// writeReport encodes the report into a temporary file beside out and
// renames it into place only once it is complete, so a failed run
// never truncates the committed baseline.
func writeReport(out string, report Report) error {
	f, err := os.CreateTemp(filepath.Dir(out), ".replaybench-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // no-op after a successful rename
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), out)
}
