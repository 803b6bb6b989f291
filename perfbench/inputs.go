package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"

	"vprofile/internal/attack"
	"vprofile/internal/control/controlapi"
	"vprofile/internal/core"
	"vprofile/internal/engine"
	"vprofile/internal/ids"
	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

// capture is one bus's pre-encoded traffic and everything the checks
// need to judge the program's output on it. All of it is built before
// any clock starts.
type capture struct {
	bus  string
	path string
	data []byte
	// hdrLen is the encoded header's length; ends[i] is the offset just
	// past record i, so record i is data[ends[i-1]:ends[i]].
	hdrLen int
	ends   []int
	times  []float64

	// ref holds the reference verdict of every record; kinds the event
	// kinds engine.Tally derives from it; tallies the reference tally
	// after the first n records, for each checkpoint n.
	ref     []verdict
	kinds   [][]string
	tallies map[int]tallyView
}

func (c *capture) records() int { return len(c.ends) }

// span returns the encoded bytes of records [i, j).
func (c *capture) span(i, j int) []byte {
	start := c.hdrLen
	if i > 0 {
		start = c.ends[i-1]
	}
	return c.data[start:c.ends[j-1]]
}

// verdict is the comparable projection of a composite verdict that
// correct_frac checks: voltage, timing, transport and quarantine.
type verdict struct {
	anomaly     bool
	reason      core.Reason
	expected    core.ClusterID
	predict     core.ClusterID
	dist        uint64
	extractErr  bool
	timing      ids.PeriodVerdict
	timingErr   bool
	transfer    bool
	transferErr bool
	state       ids.SAState
	prev        ids.SAState
	suppressed  bool
}

func verdictOf(r ids.CompositeResult) verdict {
	return verdict{
		anomaly: r.Voltage.Anomaly, reason: r.Voltage.Reason,
		expected: r.Voltage.Expected, predict: r.Voltage.Predict,
		dist:       math.Float64bits(r.Voltage.MinDist),
		extractErr: r.ExtractErr != nil,
		timing:     r.Timing, timingErr: r.TimingErr != nil,
		transfer: r.Transfer != nil, transferErr: r.TransferErr != nil,
		state: r.SAState, prev: r.PrevSAState, suppressed: r.Suppressed,
	}
}

// tallyView is the part of a bus tally the live check compares — the
// numbers `vprofile status` and the daemon smoke test read.
type tallyView struct {
	Frames, VoltAlarms, PreprocFailed, PeriodAlarms, TPErrors, Suppressed int
	SAs                                                                   []engine.TallyRow
}

func viewOfTally(t *engine.Tally) tallyView {
	return tallyView{
		Frames: t.Frames(), VoltAlarms: t.VoltAlarms, PreprocFailed: t.PreprocFailed,
		PeriodAlarms: t.PeriodAlarms, TPErrors: t.TPErrors, Suppressed: t.Suppressed,
		SAs: t.Rows(),
	}
}

func viewOfSnapshot(t *controlapi.TallySnapshot) tallyView {
	if t == nil {
		return tallyView{}
	}
	return tallyView{
		Frames: t.Frames, VoltAlarms: t.VoltAlarms, PreprocFailed: t.PreprocFailed,
		PeriodAlarms: t.PeriodAlarms, TPErrors: t.TPErrors, Suppressed: t.Suppressed,
		SAs: t.SAs,
	}
}

// encoder writes messages as a capture and records the byte offset of
// every record boundary.
type encoder struct {
	buf bytes.Buffer
	w   *trace.Writer
	c   *capture
}

func newEncoder(bus string, v *vehicle.Vehicle) (*encoder, error) {
	e := &encoder{c: &capture{bus: bus}}
	w, err := trace.NewWriter(&e.buf, trace.Header{Vehicle: v.Name, BitRate: v.BitRate, ADC: v.ADC})
	if err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	e.w = w
	e.c.hdrLen = e.buf.Len()
	return e, nil
}

func (e *encoder) add(m vehicle.Message) error {
	err := e.w.Write(&trace.Record{
		ECUIndex: int32(m.ECUIndex), TimeSec: m.TimeSec,
		FrameID: m.Frame.ID, Data: m.Frame.Data, Trace: m.Trace,
	})
	if err == nil {
		err = e.w.Flush()
	}
	e.c.ends = append(e.c.ends, e.buf.Len())
	e.c.times = append(e.c.times, m.TimeSec)
	return err
}

// finish writes the capture to path and returns it.
func (e *encoder) finish(path string) (*capture, error) {
	e.c.data = e.buf.Bytes()
	e.c.path = path
	if err := os.WriteFile(path, e.c.data, 0o644); err != nil {
		return nil, err
	}
	return e.c, nil
}

// cleanCapture simulates n messages of ordinary traffic — a training
// capture.
func cleanCapture(path string, v *vehicle.Vehicle, n int, seed int64) (*capture, error) {
	e, err := newEncoder("train", v)
	if err != nil {
		return nil, err
	}
	if err := v.Stream(vehicle.GenConfig{NumMessages: n, Seed: seed}, e.add); err != nil {
		return nil, err
	}
	return e.finish(path)
}

// scenarioCapture renders n messages of an attack-corpus scenario.
func scenarioCapture(path, bus string, v *vehicle.Vehicle, scenario string, n int, seed int64) (*capture, error) {
	spec, err := attack.ScenarioByName(scenario)
	if err != nil {
		return nil, err
	}
	msgs, err := attack.GenerateScenario(v, spec, n, seed)
	if err != nil {
		return nil, err
	}
	e, err := newEncoder(bus, v)
	if err != nil {
		return nil, err
	}
	for _, m := range msgs {
		if err := e.add(m.Message); err != nil {
			return nil, err
		}
	}
	return e.finish(path)
}

// writeIndex stores the record boundaries next to the capture, for
// the generator process.
func (c *capture) writeIndex() error {
	b := make([]byte, 8*(len(c.ends)+1))
	binary.LittleEndian.PutUint64(b, uint64(c.hdrLen))
	for i, e := range c.ends {
		binary.LittleEndian.PutUint64(b[8*(i+1):], uint64(e))
	}
	return os.WriteFile(c.path+".idx", b, 0o644)
}

// reference replays the capture through pipeline.Sequential — the
// path the concurrent pipeline must match bit for bit — and stores
// the verdicts, the Tally event kinds and the tally at each
// checkpoint.
func (c *capture) reference(model *core.Model, quarantine bool, checkpoints ...int) error {
	rd, err := trace.NewReader(bytes.NewReader(c.data))
	if err != nil {
		return err
	}
	cfg := ids.CompositeConfig{Extraction: engine.ExtractionFor(rd.Header())}
	if quarantine {
		cfg.Quarantine = &ids.QuarantineConfig{}
	}
	mon, err := ids.NewComposite(model, cfg)
	if err != nil {
		return err
	}
	tally := engine.NewTally()
	c.tallies = map[int]tallyView{}
	want := map[int]bool{}
	for _, n := range checkpoints {
		want[n] = true
	}
	_, err = pipeline.Sequential(rd, mon, func(r pipeline.Result) error {
		c.ref = append(c.ref, verdictOf(r.Verdict))
		c.kinds = append(c.kinds, eventKinds(tally.Observe(r)))
		if want[r.Index+1] {
			c.tallies[r.Index+1] = viewOfTally(tally)
		}
		return nil
	})
	if err == nil && len(c.ref) != c.records() {
		err = fmt.Errorf("reference scored %d of %d records", len(c.ref), c.records())
	}
	return err
}

// parallel runs the tasks at most NumCPU at a time and returns their
// errors joined.
func parallel(tasks ...func() error) error {
	sem := make(chan struct{}, runtime.NumCPU())
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, t := range tasks {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = t()
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// scaled returns n scaled by the size factor, never below floor.
func scaled(n int, size float64, floor int) int {
	v := int(float64(n) * size)
	if v < floor {
		return floor
	}
	return v
}
