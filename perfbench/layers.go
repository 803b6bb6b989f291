package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vprofile/internal/canbus"
	"vprofile/internal/core"
	"vprofile/internal/edgeset"
	"vprofile/internal/engine"
	"vprofile/internal/ids"
	"vprofile/internal/linalg"
	"vprofile/internal/obs"
	"vprofile/internal/obs/drift"
	"vprofile/internal/obs/incident"
	"vprofile/internal/obs/tracing"
	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
)

// layerPlan says which layers are on a workload's path. The layer
// pass calls each of those layers' public functions over the
// workload's frames and times every call; layers off the path read 0.
type layerPlan struct {
	caps  []*capture
	model *core.Model
	// scratch: the untraced hot path extracts with ExtractInto and a
	// reused scratch; the flight-recorder path uses Extract.
	scratch bool
	// detect: the verdict is scored with Detect (and so Nearest);
	// explain: with DetectExplainInto, as flight recording does.
	detect, explain bool
	quarantine      bool
	// tally: the layer pass times Tally.Observe itself (live-daemon,
	// whose sink the benchmark cannot wrap); the closed loops time it
	// in their production sink.
	tally, drift, incident, flight bool
	dir                            string
}

// layerFrames caps the frames one layer pass covers per bus.
const layerFrames = 3000

// layerReps repeats the pass; each layer reports its median.
const layerReps = 3

// layerTimes accumulates one pass's per-layer time and counts.
type layerTimes struct {
	read, decode, extract, detect, nearest, explain, sequence time.Duration
	tally, drift, incident, flight, event                     time.Duration
	frames, fails, events                                     int
	decodeBytes                                               uint64
}

// layerPass runs the layer pass layerReps times and stores the
// per-layer medians.
func layerPass(m *measurement, lp layerPlan) error {
	var runs []layerTimes
	for r := 0; r < layerReps; r++ {
		lt, err := lp.once()
		if err != nil {
			return err
		}
		runs = append(runs, lt)
	}
	per := func(get func(layerTimes) float64) float64 {
		v := make([]float64, len(runs))
		for i, lt := range runs {
			v[i] = get(lt)
		}
		return median(v)
	}
	us := func(d func(layerTimes) time.Duration) float64 {
		return per(func(lt layerTimes) float64 { return float64(d(lt)) / 1e3 / float64(lt.frames) })
	}
	m.set("trace.read_us_per_frame", us(func(lt layerTimes) time.Duration { return lt.read }))
	m.set("trace.decode_us_per_frame", us(func(lt layerTimes) time.Duration { return lt.decode }))
	m.set("trace.decode_bytes_per_frame", per(func(lt layerTimes) float64 { return float64(lt.decodeBytes) / float64(lt.frames) }))
	m.set("edgeset.extract_us_per_frame", us(func(lt layerTimes) time.Duration { return lt.extract }))
	m.set("edgeset.fail_frac", per(func(lt layerTimes) float64 { return float64(lt.fails) / float64(lt.frames) }))
	m.set("core.detect_us_per_frame", us(func(lt layerTimes) time.Duration { return lt.detect }))
	m.set("core.nearest_us_per_frame", us(func(lt layerTimes) time.Duration { return lt.nearest }))
	m.set("core.explain_us_per_frame", us(func(lt layerTimes) time.Duration { return lt.explain }))
	m.set("ids.sequence_us_per_frame", us(func(lt layerTimes) time.Duration { return lt.sequence }))
	m.set("obs.drift_us_per_frame", us(func(lt layerTimes) time.Duration { return lt.drift }))
	m.set("obs.incident_us_per_frame", us(func(lt layerTimes) time.Duration { return lt.incident }))
	m.set("obs.flight_us_per_frame", us(func(lt layerTimes) time.Duration { return lt.flight }))
	if lp.tally {
		m.set("engine.tally_us_per_frame", us(func(lt layerTimes) time.Duration { return lt.tally }))
	}
	m.info.Samples["layer_frames"] = runs[0].frames
	return nil
}

// once is one layer pass over every bus of the plan.
func (lp layerPlan) once() (layerTimes, error) {
	var lt layerTimes
	inc := incident.New(incident.Config{})
	for _, c := range lp.caps {
		if err := lp.bus(c, inc, &lt); err != nil {
			return lt, err
		}
	}
	return lt, nil
}

func timed(acc *time.Duration, fn func()) {
	t0 := time.Now()
	fn()
	*acc += time.Since(t0)
}

// bus runs the layers over one capture, stage by stage, in the order
// a frame meets them.
func (lp layerPlan) bus(c *capture, inc *incident.Correlator, lt *layerTimes) error {
	rd, err := trace.NewReader(bytes.NewReader(c.data))
	if err != nil {
		return err
	}
	n := min(c.records(), layerFrames)

	// trace: read raw records, then decode their samples.
	raws := make([]*trace.RawRecord, 0, n)
	for len(raws) < n {
		var raw *trace.RawRecord
		timed(&lt.read, func() { raw, err = rd.NextRaw() })
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		raws = append(raws, raw)
	}
	n = len(raws)
	recs := make([]*trace.Record, n)
	runtime.GC()
	h0 := heapNow()
	for i, raw := range raws {
		timed(&lt.decode, func() { recs[i] = raw.Decode() })
	}
	lt.decodeBytes += heapNow().bytes - h0.bytes

	// edgeset: Algorithm 1.
	ecfg := engine.ExtractionFor(rd.Header())
	sas := make([]canbus.SourceAddress, n)
	sets := make([]linalg.Vector, n)
	errs := make([]error, n)
	var sc edgeset.Scratch
	for i, rec := range recs {
		var res *edgeset.Result
		var err error
		if lp.scratch {
			timed(&lt.extract, func() { res, err = edgeset.ExtractInto(rec.Trace, ecfg, &sc) })
		} else {
			timed(&lt.extract, func() { res, err = edgeset.Extract(rec.Trace, ecfg) })
		}
		if err != nil {
			errs[i] = err
			lt.fails++
			continue
		}
		sas[i], sets[i] = res.SA, append(linalg.Vector(nil), res.Set...)
	}

	// core: Algorithm 3.
	dets := make([]core.Detection, n)
	buf := make([]core.ClusterDistance, 0, len(lp.model.Clusters))
	for i := range recs {
		if errs[i] != nil {
			continue
		}
		if lp.detect {
			timed(&lt.detect, func() { dets[i] = lp.model.Detect(sas[i], sets[i]) })
			timed(&lt.nearest, func() { lp.model.Nearest(sets[i]) })
		}
		if lp.explain {
			timed(&lt.explain, func() { dets[i], _ = lp.model.DetectExplainInto(sas[i], sets[i], buf[:0]) })
		}
	}

	// ids: the stateful sequence detectors, in record order.
	cfg := ids.CompositeConfig{Extraction: ecfg}
	if lp.quarantine {
		cfg.Quarantine = &ids.QuarantineConfig{}
	}
	mon, err := ids.NewComposite(lp.model, cfg)
	if err != nil {
		return err
	}
	results := make([]pipeline.Result, n)
	for i, rec := range recs {
		frame := &canbus.ExtendedFrame{ID: rec.FrameID, Data: rec.Data}
		var v ids.CompositeResult
		timed(&lt.sequence, func() { v = mon.Sequence(frame, rec.TimeSec, dets[i], errs[i]) })
		results[i] = pipeline.Result{Index: i, Record: rec, Frame: frame, Verdict: v}
	}

	// engine and obs: the sink tail.
	tally := engine.NewTally()
	var mon2 *drift.Monitor
	if lp.drift {
		mon2 = drift.NewMonitor(drift.Config{Bus: c.bus})
	}
	stream := inc.Bus(c.bus)
	var rec *tracing.Recorder
	var events *obs.EventLog
	if lp.flight {
		dir, err := os.MkdirTemp(lp.dir, "layers-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		rec, err = tracing.NewRecorder(tracing.RecorderConfig{Window: 8, Dir: dir, Header: rd.Header()})
		if err != nil {
			return err
		}
		events, err = obs.CreateEventLog(filepath.Join(dir, "events.jsonl"))
		if err != nil {
			return err
		}
	}
	for i, r := range results {
		var evs []obs.Event
		if lp.tally {
			timed(&lt.tally, func() { evs = tally.Observe(r) })
		} else {
			evs = tally.Observe(r)
		}
		v := r.Verdict
		if mon2 != nil && v.ExtractErr == nil && v.Voltage.Expected >= 0 && v.Voltage.Predict >= 0 {
			thr := lp.model.Clusters[v.Voltage.Expected].MaxDist + lp.model.Margin
			sa := uint8(r.Frame.SA())
			timed(&lt.drift, func() { mon2.Observe(sa, v.Voltage.MinDist, thr, r.Record.TimeSec) })
		}
		if lp.incident {
			ev := incident.Evidence{
				SA: uint8(r.Frame.SA()), T: r.Record.TimeSec,
				Voltage: v.ExtractErr == nil && v.Voltage.Anomaly, Preprocess: v.ExtractErr != nil,
				Timing: v.Timing == ids.PeriodTooEarly, Transport: v.TransferErr != nil,
				Suppressed: v.Suppressed,
			}
			timed(&lt.incident, func() { stream.Observe(ev) })
		}
		if rec != nil {
			d := decisionFor(i, r, sets[i])
			timed(&lt.flight, func() { rec.Record(d) })
			for _, e := range evs {
				e.Bus = c.bus
				timed(&lt.event, func() { err = events.Emit(e) })
				if err != nil {
					return err
				}
				lt.events++
			}
		}
	}
	if rec != nil {
		if err := rec.Close(); err != nil {
			return err
		}
		if err := events.Close(nil); err != nil {
			return err
		}
	}
	lt.frames += n
	return nil
}

// decisionFor builds the flight-recorder decision record of one
// verdict with the alarm rules the pipeline applies: quarantine
// coalesces suppressed voltage evidence into one alarm at the
// transition to degraded.
func decisionFor(i int, r pipeline.Result, set linalg.Vector) *tracing.Decision {
	v := r.Verdict
	d := &tracing.Decision{
		Trace: tracing.TraceID(i) + 1, Index: i, TimeSec: r.Record.TimeSec,
		FrameID: r.Record.FrameID, SA: uint8(r.Frame.SA()), Data: r.Record.Data,
		ECUIndex: r.Record.ECUIndex, Reason: v.Voltage.Reason.String(),
		Expected: int(v.Voltage.Expected), Predicted: int(v.Voltage.Predict),
		MinDist: v.Voltage.MinDist, EdgeSet: set, Samples: r.Record.Trace,
		Suppressed: v.Suppressed, Timing: v.Timing.String(),
	}
	if v.ExtractErr != nil {
		d.ExtractErr = v.ExtractErr.Error()
	}
	if (v.ExtractErr != nil || v.Voltage.Anomaly) && !v.Suppressed {
		d.Alarms = append(d.Alarms, tracing.AlarmVoltage)
	}
	if v.QuarantineChanged() && v.SAState == ids.SADegraded {
		d.Alarms = append(d.Alarms, tracing.AlarmQuarantine)
	}
	if v.Timing == ids.PeriodTooEarly {
		d.Alarms = append(d.Alarms, tracing.AlarmTiming)
	}
	if v.TransferErr != nil {
		d.Alarms = append(d.Alarms, tracing.AlarmTransport)
	}
	return d
}
