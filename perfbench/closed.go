package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vprofile/internal/engine"
	"vprofile/internal/obs"
	"vprofile/internal/obs/incident"
	"vprofile/internal/obs/tracing"
	"vprofile/internal/vehicle"
)

// workloadSpec runs one workload into a measurement.
type workloadSpec struct {
	run func(dir string, o runOptions, m *measurement) error
}

var workloads = map[string]workloadSpec{
	wReplay: {run: runReplay},
	wFleet:  {run: runFleet},
	wLive:   {run: runLive},
}

// Detection margins: Vehicle B takes the one the CLI walkthrough uses;
// Vehicle A's 64-dimension clusters take one that keeps clean traffic
// free of false alarms across seeds, so alarms come from the attacks.
const (
	marginB = 40
	marginA = 400
)

// passResult is one closed-loop pass: a full replay of the workload's
// captures through the production entry point.
type passResult struct {
	frames  int
	wall    time.Duration
	cpu     time.Duration
	wrong   int
	lat     []float64 // per-frame ingest-to-sink latencies, ms
	util    float64
	bundles int
	tallyNs int64 // traced: time inside Tally.Observe
	eventNs int64 // traced: time inside EmitEvent
	events  int
}

// loopStats aggregates the passes of one closed-loop phase.
type loopStats struct {
	rates, cpuPerK, utils, bundles []float64
	p50, p99                       []float64
	samples                        int
	frames, wrong                  int
	heap0, heap1                   heap
	tallyNs, eventNs               int64
	events                         int
}

// closedLoop runs passes until the phase's seconds are used up. The
// first pass also runs when the budget is already spent, so every
// phase measures at least one full replay.
func closedLoop(seconds float64, pass func() (passResult, error)) (loopStats, error) {
	var ls loopStats
	runtime.GC()
	ls.heap0 = heapNow()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(ls.rates) == 0 || time.Now().Before(deadline) {
		p, err := pass()
		if err != nil {
			return ls, err
		}
		ls.rates = append(ls.rates, float64(p.frames)/p.wall.Seconds())
		ls.cpuPerK = append(ls.cpuPerK, p.cpu.Seconds()*1e6/float64(p.frames))
		ls.utils = append(ls.utils, p.util)
		ls.bundles = append(ls.bundles, float64(p.bundles))
		ls.p50 = append(ls.p50, quantile(p.lat, 0.5))
		ls.p99 = append(ls.p99, quantile(p.lat, 0.99))
		ls.samples += len(p.lat)
		ls.frames += p.frames
		ls.wrong += p.wrong
		ls.tallyNs += p.tallyNs
		ls.eventNs += p.eventNs
		ls.events += p.events
	}
	ls.heap1 = heapNow()
	return ls, nil
}

// report stores the phase's end-to-end metrics. Rates and latency
// percentiles are medians over the passes, so one pass that meets a
// GC cycle or a slow bundle write does not move them.
func (ls loopStats) report(m *measurement) {
	f := float64(ls.frames)
	m.set("frames_per_s", median(ls.rates))
	m.set("cpu_ms_per_kframe", median(ls.cpuPerK))
	m.set("allocs_per_frame", float64(ls.heap1.mallocs-ls.heap0.mallocs)/f)
	m.set("bytes_per_frame", float64(ls.heap1.bytes-ls.heap0.bytes)/f)
	m.set("alert_latency_p50_ms", median(ls.p50))
	m.set("alert_latency_p99_ms", median(ls.p99))
	m.set("correct_frac", float64(ls.frames-ls.wrong)/f)
	m.attempted += int64(ls.frames)
	m.failed += int64(ls.wrong)
	m.info.Samples["passes"] += len(ls.rates)
	m.info.Samples["alert_latency"] += ls.samples
}

// runPhases measures a closed-loop workload: one untraced phase for
// the end-to-end metrics, or — traced — an untraced and a traced half
// whose cost difference is the tracing overhead, then the layer pass.
func runPhases(o runOptions, m *measurement, pass func(traced bool) (passResult, error), layers func() error) error {
	if !o.trace {
		ls, err := closedLoop(o.seconds, func() (passResult, error) { return pass(false) })
		if err != nil {
			return err
		}
		ls.report(m)
		return nil
	}
	plain, err := closedLoop(o.seconds/2, func() (passResult, error) { return pass(false) })
	if err != nil {
		return err
	}
	traced, err := closedLoop(o.seconds/2, func() (passResult, error) { return pass(true) })
	if err != nil {
		return err
	}
	plain.report(m)
	base := m.metrics["cpu_ms_per_kframe"].Value
	traced.report(m)
	m.set("bench.trace_overhead_pct", 100*(m.metrics["cpu_ms_per_kframe"].Value/base-1))
	m.set("pipeline.worker_util", median(traced.utils))
	m.set("obs.flight_bundles", median(traced.bundles))
	m.set("engine.tally_us_per_frame", float64(traced.tallyNs)/1e3/float64(traced.frames))
	ev := 0.0
	if traced.events > 0 {
		ev = float64(traced.eventNs) / 1e3 / float64(traced.events)
	}
	m.set("obs.event_us_per_event", ev)
	for _, n := range []string{"engine.verdict_latency_p50_ms", "engine.verdict_latency_p99_ms",
		"control.event_delivery_ms_p50", "control.backlog_frames_max", "gen.late_ms_p99"} {
		m.set(n, 0)
	}
	return layers()
}

// stampReader passes a capture through and stamps the moment each
// record's last byte has been read — when the record entered the
// process. Stamps are written by the reading goroutine before the
// record is handed on, so the sink may read them.
type stampReader struct {
	r    io.ReadCloser
	ends []int
	at   []int64
	pos  int
	next int
}

func (s *stampReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	s.pos += n
	if s.next < len(s.ends) && s.pos >= s.ends[s.next] {
		t := now()
		for s.next < len(s.ends) && s.pos >= s.ends[s.next] {
			s.at[s.next] = t
			s.next++
		}
	}
	return n, err
}

func (s *stampReader) Close() error { return s.r.Close() }

// alarmKinds are the event kinds that count as alerts for latency.
var alarmKinds = map[string]bool{
	obs.EventVoltage: true, obs.EventPreprocess: true,
	obs.EventTiming: true, obs.EventTransport: true, obs.EventQuarantine: true,
}

func eventKinds(evs []obs.Event) []string {
	if len(evs) == 0 {
		return nil
	}
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.Kind
	}
	return out
}

// runReplay is the replay-b workload: `vprofile detect` on Vehicle B
// hijack traffic through engine.Session with nproc workers, the
// default batch and an engine.Tally sink.
func runReplay(dir string, o runOptions, m *measurement) error {
	v := vehicle.NewVehicleB()
	var train, test *capture
	err := parallel(
		func() (err error) {
			train, err = cleanCapture(filepath.Join(dir, "train.vptr"), v, scaled(4000, o.size, 1000), o.seed*7+1)
			return err
		},
		func() (err error) {
			test, err = scenarioCapture(filepath.Join(dir, "bus.vptr"), "bus", v, "hijack", scaled(4000, o.size, 800), o.seed*7+2)
			return err
		},
	)
	if err != nil {
		return err
	}
	modelPath := filepath.Join(dir, "model.vpm")
	cfg := trainConfig(marginB)
	if _, err := trainModel(train.path, modelPath, cfg); err != nil {
		return err
	}
	refModel, err := engine.LoadModelFile(modelPath)
	if err != nil {
		return err
	}
	if err := test.reference(refModel, false); err != nil {
		return err
	}

	workers := runtime.NumCPU()
	var store *engine.ModelStore
	// A session runs once, so each pass builds its own over a stamped
	// source; set-up times building one the way `vprofile detect` does.
	st, err := timedSetup(train.path, modelPath, cfg, func(s *engine.ModelStore) error {
		store = s
		engine.NewSession(test.path, engine.WithStore(s), engine.WithWorkers(workers))
		return nil
	})
	if err != nil {
		return err
	}
	st.report(m, false)

	stamps := make([]int64, test.records())
	got := make([]verdict, test.records())
	pass := func(traced bool) (passResult, error) {
		var p passResult
		f, err := os.Open(test.path)
		if err != nil {
			return p, err
		}
		src, err := engine.NewStreamSource(test.path, &stampReader{r: f, ends: test.ends, at: stamps})
		if err != nil {
			return p, err
		}
		sess := engine.NewSession("", engine.WithSource(src), engine.WithStore(store), engine.WithWorkers(workers))
		tally := engine.NewTally()
		for i := range got {
			got[i] = verdict{}
		}
		sink := func(res engine.Result) error {
			got[res.Index] = verdictOf(res.Verdict)
			var t0 int64
			if traced {
				t0 = now()
			}
			tally.Observe(res.Result)
			t := now()
			if traced {
				p.tallyNs += t - t0
			}
			p.lat = append(p.lat, ms(t-stamps[res.Index]))
			return nil
		}
		c0, t0 := cpuTime(), time.Now()
		sum, err := sess.Run(sink)
		p.wall, p.cpu = time.Since(t0), cpuTime()-c0
		if err != nil {
			return p, err
		}
		p.frames = int(sum.Stats.RecordsOut)
		p.util = sum.Stats.Utilization()
		p.wrong = compareVerdicts(got[:min(p.frames, len(got))], test.ref) + test.records() - p.frames
		return p, nil
	}
	return runPhases(o, m, pass, func() error {
		return layerPass(m, layerPlan{caps: []*capture{test}, model: refModel, scratch: true,
			detect: true, dir: dir})
	})
}

// compareVerdicts counts the frames whose verdict differs from the
// reference.
func compareVerdicts(got, ref []verdict) int {
	wrong := 0
	for i := range got {
		if got[i] != ref[i] {
			wrong++
		}
	}
	return wrong
}

// runFleet is the fleet-forensic workload: engine.NewFleet over two
// Vehicle A buses under attack on the same victim, on one nproc-wide
// shared pool, with flight recorder, incidents, drift, quarantine and
// the event log on.
func runFleet(dir string, o runOptions, m *measurement) error {
	v := vehicle.NewVehicleA()
	var train *capture
	buses := make([]*capture, 2)
	// Flood and collusion both walk the victim into quarantine within
	// a few frames on every seed, so the alarm and bundle counts — and
	// with them the sink-tail cost — do not swing with the seed the way
	// scenarios that degrade the victim only sometimes do.
	scen := []string{"flood", "collusion"}
	n := scaled(2000, o.size, 700)
	err := parallel(
		func() (err error) {
			train, err = cleanCapture(filepath.Join(dir, "train.vptr"), v, scaled(4000, o.size, 1500), o.seed*7+1)
			return err
		},
		func() (err error) {
			buses[0], err = scenarioCapture(filepath.Join(dir, "bus-a.vptr"), "bus-a", v, scen[0], n, o.seed*7+2)
			return err
		},
		func() (err error) {
			buses[1], err = scenarioCapture(filepath.Join(dir, "bus-b.vptr"), "bus-b", v, scen[1], n, o.seed*7+3)
			return err
		},
	)
	if err != nil {
		return err
	}
	modelPath := filepath.Join(dir, "model.vpm")
	cfg := trainConfig(marginA)
	if _, err := trainModel(train.path, modelPath, cfg); err != nil {
		return err
	}
	refModel, err := engine.LoadModelFile(modelPath)
	if err != nil {
		return err
	}
	if err := parallel(
		func() error { return buses[0].reference(refModel, true) },
		func() error { return buses[1].reference(refModel, true) },
	); err != nil {
		return err
	}
	paths := []string{buses[0].path, buses[1].path}

	workers := runtime.NumCPU()
	passNo := 0
	newFleet := func(store *engine.ModelStore) (*engine.Fleet, string, error) {
		passNo++
		pdir := filepath.Join(dir, fmt.Sprintf("pass-%d", passNo))
		if err := os.MkdirAll(pdir, 0o755); err != nil {
			return nil, "", err
		}
		fl, err := engine.NewFleet(paths,
			engine.WithStore(store), engine.WithWorkers(workers),
			engine.WithQuarantine(true), engine.WithIncidents(true), engine.WithDrift(true),
			engine.WithFlightRecorder(filepath.Join(pdir, "flight"), 8),
			engine.WithEventsPath(filepath.Join(pdir, "events.jsonl")))
		return fl, pdir, err
	}
	type builtFleet struct {
		fl  *engine.Fleet
		dir string
	}
	var ready []builtFleet
	var store *engine.ModelStore
	st, err := timedSetup(train.path, modelPath, cfg, func(s *engine.ModelStore) error {
		fl, pdir, err := newFleet(s)
		store = s
		ready = append(ready, builtFleet{fl, pdir})
		return err
	})
	if err != nil {
		return err
	}
	st.report(m, false)
	// The fleets the set-up built are the first passes, so their pools
	// and event logs close; each runs against its own store, and every
	// store holds the same trained model.

	got := make([][]verdict, len(buses))
	for i, b := range buses {
		got[i] = make([]verdict, b.records())
	}
	pass := func(traced bool) (passResult, error) {
		var p passResult
		var bf builtFleet
		if len(ready) > 0 {
			bf, ready = ready[0], ready[1:]
		} else {
			fl, pdir, err := newFleet(store)
			if err != nil {
				return p, err
			}
			bf = builtFleet{fl, pdir}
		}
		defer os.RemoveAll(bf.dir)
		index := map[string]int{}
		tallies := make([]*engine.Tally, len(buses))
		for i, b := range bf.fl.Buses() {
			index[b] = i
			tallies[i] = engine.NewTally()
			for j := range got[i] {
				got[i][j] = verdict{}
			}
		}
		sink := func(res engine.Result) error {
			b := index[res.Bus]
			got[b][res.Index] = verdictOf(res.Verdict)
			var t0 int64
			if traced {
				t0 = now()
			}
			evs := tallies[b].Observe(res.Result)
			if traced {
				p.tallyNs += now() - t0
			}
			for _, e := range evs {
				e.Bus = res.Bus
				if traced {
					t0 = now()
				}
				if err := bf.fl.EmitEvent(e); err != nil {
					return err
				}
				if traced {
					p.eventNs += now() - t0
					p.events++
				}
			}
			// Flight recording traces every frame: its first span opens
			// when the reader stage takes the record off the capture.
			p.lat = append(p.lat, ms(tracing.Now()-res.Trace.Spans[0].StartNS))
			return nil
		}
		c0, t0 := cpuTime(), time.Now()
		sums, err := bf.fl.Run(sink)
		p.wall, p.cpu = time.Since(t0), cpuTime()-c0
		if err != nil {
			return p, err
		}
		// The attack on one victim across both buses must cut bundles and
		// correlate into a fleet incident; a pass that does neither did
		// not exercise the forensic path.
		correlated := false
		for _, in := range bf.fl.Incidents() {
			correlated = correlated || in.Scope == incident.ScopeFleet
		}
		if !correlated {
			p.wrong += buses[0].records() + buses[1].records()
		}
		for _, s := range sums {
			b := index[s.Bus]
			out, want := int(s.Stats.RecordsOut), buses[b].records()
			p.frames += out
			p.wrong += compareVerdicts(got[b][:min(out, want)], buses[b].ref) + want - out
			p.util += s.Stats.Utilization()
			if s.Flight == nil || s.Flight.Bundles == 0 {
				p.wrong += want
			} else {
				p.bundles += int(s.Flight.Bundles)
			}
		}
		return p, nil
	}
	return runPhases(o, m, pass, func() error {
		return layerPass(m, layerPlan{caps: buses, model: refModel, explain: true, quarantine: true,
			drift: true, incident: true, flight: true, dir: dir})
	})
}
