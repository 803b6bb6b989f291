package engine

import (
	"vprofile/internal/ids"
	"vprofile/internal/obs/incident"
	"vprofile/internal/pipeline"
)

// WithIncidents enables the fleet-observability incident layer: every
// verdict feeds a streaming correlator that turns raw alarms into
// lifecycle-managed incidents (single-bus or fleet-correlated),
// maintains per-bus health scores, and serves /fleet, /fleet/incidents
// and /fleet/topk next to /metrics. Verdicts are untouched — the layer
// only observes the stream.
func WithIncidents(on bool) Option { return func(c *config) { c.incidents = on } }

// WithIncidentConfig enables incidents with an explicit correlator
// configuration (tests and benchmarks tune windows with it; the CLIs
// use the defaults).
func WithIncidentConfig(cfg incident.Config) Option {
	return func(c *config) { c.incidents = true; c.incCfg = &cfg }
}

// WithMaxEvents caps the JSONL event log: past the cap, events are
// dropped and counted instead of written, so a pathological alarm
// flood cannot fill the disk (0 = unlimited).
func WithMaxEvents(n int) Option { return func(c *config) { c.maxEvents = n } }

// incidentBusName is the name the session's evidence is filed under:
// its bus name, or the capture's derived name for an unnamed session.
func (s *Session) incidentBusName() string {
	if s.name != "" {
		return s.name
	}
	return BusNames([]string{s.capture})[0]
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
