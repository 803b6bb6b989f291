package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"vprofile/internal/core"
	"vprofile/internal/edgeset"
	"vprofile/internal/engine"
	"vprofile/internal/trace"
)

// setupReps is how many times a run repeats its timed set-up; the
// reported set-up figures are medians over the repetitions.
const setupReps = 7

// trainConfig is `vprofile train -margin <margin>` with the CLI's
// other defaults.
func trainConfig(margin float64) core.TrainConfig {
	return core.TrainConfig{Metric: core.Mahalanobis, Margin: margin}
}

// trainTiming splits one training into the calls `vprofile train`
// makes: reading and edge-set extraction, then fitting and saving.
type trainTiming struct{ extract, train time.Duration }

// trainModel runs the `vprofile train` sequence — trace reader,
// edgeset.Extract per record, core.Train, Save — from the training
// capture at path into modelPath.
func trainModel(path, modelPath string, cfg core.TrainConfig) (trainTiming, error) {
	var tt trainTiming
	t0 := time.Now()
	rd, closer, err := trace.OpenPath(path)
	if err != nil {
		return tt, err
	}
	defer closer.Close()
	ecfg := engine.ExtractionFor(rd.Header())
	var samples []core.Sample
	for {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return tt, err
		}
		res, err := edgeset.Extract(rec.Trace, ecfg)
		if err != nil {
			return tt, fmt.Errorf("training record %d: %w", len(samples), err)
		}
		samples = append(samples, core.Sample{SA: res.SA, Set: res.Set})
	}
	t1 := time.Now()
	model, err := core.Train(samples, cfg)
	if err != nil {
		return tt, err
	}
	f, err := os.Create(modelPath)
	if err != nil {
		return tt, err
	}
	if err := model.Save(f); err != nil {
		f.Close()
		return tt, err
	}
	if err := f.Close(); err != nil {
		return tt, err
	}
	tt.extract, tt.train = t1.Sub(t0), time.Since(t1)
	return tt, nil
}

// loadModel loads a model the way a session does.
func loadModel(path string) (*engine.ModelStore, error) {
	m, err := engine.LoadModelFile(path)
	if err != nil {
		return nil, err
	}
	return engine.NewModelStore(m)
}

// setupTimes holds every repetition's set-up phases.
type setupTimes struct {
	total, extract, train, load, build []float64
}

// timedSetup repeats the workload's set-up: train from the training
// capture, load the model, then build (the session, fleet or daemon
// with its buses attached). Each repetition starts after a forced GC
// and times only the program's own calls; the caller keeps what build
// makes, so it can run or release it untimed.
func timedSetup(trainPath, modelPath string, cfg core.TrainConfig, build func(*engine.ModelStore) error) (setupTimes, error) {
	var st setupTimes
	for r := 0; r < setupReps; r++ {
		runtime.GC()
		t0 := time.Now()
		tt, err := trainModel(trainPath, modelPath, cfg)
		if err != nil {
			return st, err
		}
		t1 := time.Now()
		store, err := loadModel(modelPath)
		if err != nil {
			return st, err
		}
		t2 := time.Now()
		if err := build(store); err != nil {
			return st, err
		}
		t3 := time.Now()
		st.total = append(st.total, t3.Sub(t0).Seconds())
		st.extract = append(st.extract, tt.extract.Seconds())
		st.train = append(st.train, tt.train.Seconds())
		st.load = append(st.load, t2.Sub(t1).Seconds())
		st.build = append(st.build, t3.Sub(t2).Seconds())
	}
	return st, nil
}

// report stores the set-up metrics; attach names whether the build
// phase is the daemon's bus attach (live-daemon) or not.
func (st setupTimes) report(m *measurement, attach bool) {
	m.set("setup_s", median(st.total))
	m.set("edgeset.train_extract_s", median(st.extract))
	m.set("core.train_s", median(st.train))
	m.set("core.load_s", median(st.load))
	a := 0.0
	if attach {
		a = median(st.build)
	}
	m.set("control.attach_s", a)
	m.info.Samples["setup_reps"] = len(st.total)
}
