package engine

import (
	"vprofile/internal/obs"
	"vprofile/internal/obs/drift"
	"vprofile/internal/obs/incident"
	"vprofile/internal/pipeline"
)

// WithDrift enables the drift observability layer: every scored
// frame's best-cluster distance and threshold margin feed per-SA
// streaming sketches and drift detectors (Page-Hinkley mean shift,
// windowed quantile divergence, margin-erosion trend), emitting
// drift_warn/drift_alarm events, vprofile_drift_* gauges and a /drift
// JSON endpoint next to /metrics. Baselines re-freeze on model swap.
// Verdicts are untouched — the layer only observes the stream.
func WithDrift(on bool) Option { return func(s *Session) { s.drift = on } }

// WithDriftConfig enables drift monitoring with an explicit detector
// configuration (tests tune baselines and thresholds with it; the
// CLIs use the defaults).
func WithDriftConfig(cfg drift.Config) Option {
	return func(s *Session) { s.drift = true; s.driftCfg = &cfg }
}

// withDriftMonitor points a fleet member at a fleet-owned monitor;
// the session then feeds it but neither creates it nor resets it on
// model swaps (the fleet does, for every member at once).
func withDriftMonitor(m *drift.Monitor) Option {
	return func(s *Session) { s.driftMon = m; s.drift = true }
}

// setupDrift builds (or adopts) the session's drift monitor, wiring
// events, the incident correlator hook and the vprofile_drift_*
// instruments. Called from Run after setupIncidents so a drifting SA
// can escalate the incidents layer.
func (s *Session) setupDrift(reg *obs.Registry, incStream *incident.BusStream) *drift.Monitor {
	if !s.drift {
		return nil
	}
	if s.driftMon == nil {
		cfg := drift.Config{}
		if s.driftCfg != nil {
			cfg = *s.driftCfg
		}
		if cfg.Bus == "" {
			cfg.Bus = s.name
		}
		if cfg.Emit == nil && s.events != nil {
			events := s.events
			cfg.Emit = func(e obs.Event) { _ = events.Emit(e) }
		}
		if cfg.OnTransition == nil && incStream != nil {
			// A drifting SA escalates its open incident; fleet-wide
			// drift on the same SA tags it environmental.
			stream := incStream
			cfg.OnTransition = func(tr drift.Transition) {
				stream.ObserveDrift(tr.SA, tr.To.String(), tr.TimeSec)
			}
		}
		s.driftMon = drift.NewMonitor(cfg)
		s.ownDrift = true
	}
	if reg != nil {
		s.driftMon.BindGauges(reg)
	}
	return s.driftMon
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

// DriftMonitor exposes the fleet's per-bus drift monitors, in capture
// order (empty when drift is off) — tests scrape mid-run state
// through them.
func (f *Fleet) DriftMonitors() []*drift.Monitor {
	return append([]*drift.Monitor(nil), f.driftMons...)
}
