package engine

import (
	"vprofile/internal/ids"
	"vprofile/internal/obs"
	"vprofile/internal/obs/incident"
	"vprofile/internal/pipeline"
)

// WithIncidents enables the fleet-observability incident layer: every
// verdict feeds a streaming correlator that turns raw alarms into
// lifecycle-managed incidents (single-bus or fleet-correlated),
// maintains per-bus health scores, and serves /fleet, /fleet/incidents
// and /fleet/topk next to /metrics. Verdicts are untouched — the layer
// only observes the stream.
func WithIncidents(on bool) Option { return func(s *Session) { s.incidents = on } }

// WithIncidentConfig enables incidents with an explicit correlator
// configuration (tests and benchmarks tune windows with it; the CLIs
// use the defaults).
func WithIncidentConfig(cfg incident.Config) Option {
	return func(s *Session) { s.incidents = true; s.incCfg = &cfg }
}

// WithMaxEvents caps the JSONL event log the session (or fleet) owns:
// past the cap, events are dropped and counted instead of written, so
// a pathological alarm flood cannot fill the disk (0 = unlimited).
// Ignored for an externally-owned log (WithEventLog).
func WithMaxEvents(n int) Option { return func(s *Session) { s.maxEvents = n } }

// withCorrelator points a fleet member at the fleet-owned correlator;
// the session then feeds it but neither creates nor closes it.
func withCorrelator(c *incident.Correlator) Option {
	return func(s *Session) { s.inc = c; s.incidents = true }
}

// incidentBusName is the name the session's evidence is filed under:
// the bus name on a fleet, the capture's derived name standalone.
func (s *Session) incidentBusName() string {
	if s.name != "" {
		return s.name
	}
	return BusNames([]string{s.capture})[0]
}

// setupIncidents builds (or adopts) the correlator and registers this
// session's bus stream, binding the health gauge and the recovering
// reader's corruption counter when a registry exists. Called from Run
// after the event log exists, so a session-owned correlator can emit
// lifecycle events into it.
func (s *Session) setupIncidents(reg *obs.Registry) *incident.BusStream {
	if !s.incidents {
		return nil
	}
	if s.inc == nil {
		cfg := incident.Config{}
		if s.incCfg != nil {
			cfg = *s.incCfg
		}
		if cfg.Emit == nil && s.events != nil {
			events := s.events
			cfg.Emit = func(e obs.Event) { _ = events.Emit(e) }
		}
		s.inc = incident.New(cfg)
		s.ownInc = true
	}
	stream := s.inc.Bus(s.incidentBusName())
	if reg != nil {
		stream.BindHealthGauge(reg.Gauge("vprofile_bus_health_score",
			"Composite bus health 0-100 (100 = healthy): decayed alarm, extract-failure and corruption-recovery rates plus quarantine occupancy."))
		stream.BindCorruptionCounter(reg.Counter("vprofile_capture_corruptions_recovered_total",
			"Corrupted stretches the recovering reader re-synchronised past."))
	}
	return stream
}

// IncidentEvidence translates one pipeline verdict into the
// correlator's evidence shape. Pure projection — reading it cannot
// perturb the verdict stream.
func IncidentEvidence(r pipeline.Result) incident.Evidence {
	v := r.Verdict
	return incident.Evidence{
		SA:         uint8(r.Frame.SA()),
		T:          r.Record.TimeSec,
		Voltage:    v.ExtractErr == nil && v.Voltage.Anomaly,
		Preprocess: v.ExtractErr != nil,
		Timing:     v.Timing == ids.PeriodTooEarly,
		Transport:  v.TransferErr != nil,
		Suppressed: v.Suppressed,
	}
}

// Incidents returns the fleet's full incident history (open incidents
// resolved as "end-of-run"), available after Run.
func (f *Fleet) Incidents() []incident.Snapshot { return f.incidents }

// Correlator exposes the fleet's live correlator (nil when incidents
// are off) — tests scrape health and top-K through it mid-run.
func (f *Fleet) Correlator() *incident.Correlator { return f.inc }
