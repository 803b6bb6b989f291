package engine

import (
	"vprofile/internal/obs/drift"
	"vprofile/internal/pipeline"
)

// WithDrift enables the drift observability layer: every scored
// frame's best-cluster distance and threshold margin feed per-SA
// streaming sketches and drift detectors (Page-Hinkley mean shift,
// windowed quantile divergence, margin-erosion trend), emitting
// drift_warn/drift_alarm events, vprofile_drift_* gauges and a /drift
// JSON endpoint next to /metrics. Baselines re-freeze on model swap.
// Verdicts are untouched — the layer only observes the stream.
func WithDrift(on bool) Option { return func(c *config) { c.drift = on } }

// WithDriftConfig enables drift monitoring with an explicit detector
// configuration (tests tune baselines and thresholds with it; the
// CLIs use the defaults). Its Bus is set per bus by the fleet.
func WithDriftConfig(cfg drift.Config) Option {
	return func(c *config) { c.drift = true; c.driftCfg = &cfg }
}

// ObserveDrift projects one verdict into the drift monitor: the
// best-cluster distance the voltage detector already computed, and
// the alarm threshold for the frame's expected sender. Pure
// observation — one sketch insert per scored frame, nothing written
// back, so verdicts stay bit-identical with the layer on.
func ObserveDrift(mon *drift.Monitor, store *ModelStore, r pipeline.Result) {
	v := r.Verdict
	if v.ExtractErr != nil || v.Voltage.Expected < 0 || v.Voltage.Predict < 0 {
		// Unscored frames (failed extraction, unknown SA) carry no
		// distance to sketch.
		return
	}
	m := store.AcquireModel()
	exp := int(v.Voltage.Expected)
	if exp >= len(m.Clusters) {
		return
	}
	thr := m.Clusters[exp].MaxDist + m.Margin
	mon.Observe(uint8(r.Frame.SA()), v.Voltage.MinDist, thr, r.Record.TimeSec)
}
