package engine

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"vprofile/internal/obs"
	"vprofile/internal/obs/drift"
	"vprofile/internal/obs/incident"
	"vprofile/internal/pipeline"
)

// Fleet runs one session per bus concurrently over a single shared
// worker pool, so the extraction/scoring concurrency is bounded
// fleet-wide instead of multiplying per bus. Sessions are
// fail-isolated: one bus stalling or hitting unrecovered corruption
// ends that bus's replay (its Summary carries the error) while the
// others run to completion.
//
// The fleet is the one owner of everything shared across a run: the
// model store (so a hot swap reaches every bus) with its swap
// listeners and -model-watch, the worker pool, the event log, the
// incident correlator, the per-bus drift monitors, and the metrics
// endpoint (per-bus registries grouped under a bus="name" label).
// Every replay runs in a fleet — a standalone Session.Run is a
// one-bus fleet.
type Fleet struct {
	cfg      config
	sessions []*Session
	// store is the caller's cfg.store, or one the fleet built from
	// WithModel or WithModelPath. The fleet announces swaps and drives
	// the model watch only for a store it built; a caller's store is
	// announced by its owner.
	store  *ModelStore
	pool   *pipeline.Pool
	group  *obs.Group
	events *obs.EventLog

	// inc is the incident correlator (nil when incidents are off);
	// every session feeds it, and cross-bus correlation is what
	// distinguishes a fleet-wide spoof from one flaky ECU. incidents
	// is its full history after Run.
	inc       *incident.Correlator
	incidents []incident.Snapshot
}

// BusNames derives fleet bus names from capture paths: the base name
// with .vptr/.gz extensions stripped, deduplicated with -2, -3, ...
// suffixes so every session gets a distinct label.
func BusNames(captures []string) []string {
	out := make([]string, len(captures))
	seen := map[string]int{}
	for i, c := range captures {
		n := filepath.Base(c)
		n = strings.TrimSuffix(n, ".gz")
		n = strings.TrimSuffix(n, ".vptr")
		if n == "" || n == "." {
			n = fmt.Sprintf("bus%d", i)
		}
		seen[n]++
		if k := seen[n]; k > 1 {
			n = fmt.Sprintf("%s-%d", n, k)
		}
		out[i] = n
	}
	return out
}

// NewFleet builds one session per capture, named by BusNames. The
// options are the ones a single Session takes; the per-bus ones
// (batch, quarantine, recovery, stall timeout, flight recording)
// apply to every member, and with several buses each writes its
// flight bundles under its own subdirectory.
func NewFleet(captures []string, opts ...Option) (*Fleet, error) {
	if len(captures) == 0 {
		return nil, errors.New("engine: fleet needs at least one capture")
	}
	cfg := newConfig(opts)
	buses := BusNames(captures)
	sessions := make([]*Session, len(captures))
	for i, capture := range captures {
		s := &Session{capture: capture, config: cfg}
		s.name, s.source = buses[i], nil
		if cfg.flightDir != "" && len(captures) > 1 {
			s.flightDir = filepath.Join(cfg.flightDir, buses[i])
		}
		sessions[i] = s
	}
	return newFleet(cfg, sessions)
}

// newFleet wires the shared resources around sessions: the model
// store, the event log, the metrics registries, the incident
// correlator with each bus's stream, each bus's drift monitor, and
// the worker pool.
func newFleet(cfg config, sessions []*Session) (*Fleet, error) {
	f := &Fleet{cfg: cfg, sessions: sessions, store: cfg.store}
	if f.store == nil {
		m := cfg.model
		if m == nil {
			if cfg.modelPath == "" {
				return nil, errors.New("engine: session needs a model (WithModel, WithModelPath or WithStore)")
			}
			var err error
			if m, err = LoadModelFile(cfg.modelPath); err != nil {
				return nil, err
			}
		}
		st, err := NewModelStore(m)
		if err != nil {
			return nil, err
		}
		f.store = st
		if cfg.watch > 0 && cfg.modelPath == "" {
			return nil, errors.New("engine: model watch needs a model path")
		}
	}
	if cfg.eventsPath != "" {
		var err error
		if f.events, err = obs.CreateEventLog(cfg.eventsPath); err != nil {
			return nil, err
		}
		if cfg.maxEvents > 0 {
			f.events.SetMaxEvents(cfg.maxEvents)
		}
	}
	// A registry exists only for a consumer: the metrics endpoint, or
	// the event log's end-of-run stats records.
	if cfg.metricsAddr != "" || f.events != nil {
		f.group = obs.NewGroup("bus")
	}
	emit := func(e obs.Event) { _ = f.events.Emit(e) }
	if cfg.incidents {
		icfg := incident.Config{}
		if cfg.incCfg != nil {
			icfg = *cfg.incCfg
		}
		if icfg.Emit == nil && f.events != nil {
			icfg.Emit = emit
		}
		f.inc = incident.New(icfg)
	}
	for _, s := range sessions {
		s.events = f.events
		if f.group != nil {
			s.reg = f.group.Add(s.name, nil)
		}
		if f.inc != nil {
			s.incStream = f.inc.Bus(s.incidentBusName())
			if s.reg != nil {
				s.incStream.BindHealthGauge(s.reg.Gauge("vprofile_bus_health_score",
					"Composite bus health 0-100 (100 = healthy): decayed alarm, extract-failure and corruption-recovery rates plus quarantine occupancy."))
				s.incStream.BindCorruptionCounter(s.reg.Counter("vprofile_capture_corruptions_recovered_total",
					"Corrupted stretches the recovering reader re-synchronised past."))
			}
		}
		if cfg.drift {
			dcfg := drift.Config{}
			if cfg.driftCfg != nil {
				dcfg = *cfg.driftCfg
			}
			dcfg.Bus = s.name
			if dcfg.Emit == nil && f.events != nil {
				dcfg.Emit = emit
			}
			if stream := s.incStream; dcfg.OnTransition == nil && stream != nil {
				// A drifting SA escalates its open incident; fleet-wide
				// drift on the same SA tags it environmental.
				dcfg.OnTransition = func(tr drift.Transition) {
					stream.ObserveDrift(tr.SA, tr.To.String(), tr.TimeSec)
				}
			}
			s.driftMon = drift.NewMonitor(dcfg)
			if s.reg != nil {
				s.driftMon.BindGauges(s.reg)
			}
		}
	}
	f.pool = pipeline.NewPool(cfg.workers)
	return f, nil
}

// Buses returns the bus names, in capture order.
func (f *Fleet) Buses() []string {
	out := make([]string, len(f.sessions))
	for i, s := range f.sessions {
		out[i] = s.name
	}
	return out
}

// EmitEvent appends one event to the fleet's shared log — the sink's
// outlet, like Session.EmitEvent. No-op (nil) without an event log;
// the caller sets Event.Bus (the serialised sink knows which bus a
// result came from, the fleet does not).
func (f *Fleet) EmitEvent(e obs.Event) error {
	if f.events == nil {
		return nil
	}
	return f.events.Emit(e)
}

// modelVersionGauge is the bus registry's hot-swap generation gauge.
func modelVersionGauge(reg *obs.Registry) *obs.Gauge {
	return reg.Gauge("vprofile_engine_model_version",
		"current hot-swap model generation (1 = the model loaded at start)")
}

// Run replays every bus concurrently, delivering all verdicts to one
// serialised sink (each bus's results stay in record order; buses
// interleave). It returns one Summary per bus, in capture order —
// present even for failed buses, with Summary.Err set — and the
// joined error of every failed session. errors.As still finds
// *AbortError through the join, so exit-code classification works
// unchanged on a fleet. Run may be called once; it closes the pool,
// the event log and the correlator, and removes its swap listener,
// before returning.
func (f *Fleet) Run(sink Sink) ([]Summary, error) {
	defer f.pool.Close()
	logf := f.cfg.logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if f.cfg.metricsAddr != "" {
		// Runtime self-telemetry lives on its own pseudo-bus member so
		// the process-wide gauges appear once, not once per bus, and
		// refresh at scrape time.
		rs := obs.NewRuntimeStats(f.group.Add("fleet", nil))
		var routes []obs.Route
		if f.cfg.flightDir != "" {
			routes = append(routes, f.flightRoute())
		}
		if f.inc != nil {
			routes = append(routes, f.inc.Routes()...)
		}
		if f.cfg.drift {
			mons := make([]*drift.Monitor, len(f.sessions))
			for i, s := range f.sessions {
				mons[i] = s.driftMon
			}
			routes = append(routes, drift.FleetRoute(mons))
		}
		srv, err := obs.Serve(f.cfg.metricsAddr, obs.CollectedExporter(f.group, rs.Collect), routes...)
		if err != nil {
			return nil, err
		}
		// Drain in-flight scrapes briefly instead of cutting them off
		// mid-response.
		defer func() { _ = srv.ShutdownTimeout(2 * time.Second) }()
		logf("serving /metrics and /debug/pprof/ on http://%s", srv.Addr())
		if f.cfg.flightDir != "" {
			logf("flight recorder live at http://%s/debug/flight", srv.Addr())
		}
		if f.inc != nil {
			logf("fleet incidents live at http://%s/fleet", srv.Addr())
		}
	}

	// One swap listener serves the whole run: it moves every bus's
	// version gauge, re-freezes every drift baseline (a new model
	// changes the distance distribution on every bus at once — that is
	// not drift), and announces the swap when the fleet owns the store.
	started := time.Now()
	for _, s := range f.sessions {
		if s.reg != nil {
			modelVersionGauge(s.reg).Set(int64(f.store.Version()))
		}
	}
	removeListener := f.store.OnSwap(func(sm StoredModel) {
		for _, s := range f.sessions {
			if s.reg != nil {
				modelVersionGauge(s.reg).Set(int64(sm.Version))
			}
			if s.driftMon != nil {
				s.driftMon.ResetBaseline()
			}
		}
		if f.cfg.store == nil && f.events != nil {
			e := ModelSwapEvent(sm)
			e.TimeSec = time.Since(started).Seconds()
			_ = f.events.Emit(e)
		}
	})
	if f.cfg.store == nil && f.cfg.watch > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go f.store.Watch(f.cfg.modelPath, f.cfg.watch, stop, f.cfg.logf)
	}

	var sinkMu sync.Mutex
	serial := sink
	if serial != nil {
		serial = func(r Result) error {
			sinkMu.Lock()
			defer sinkMu.Unlock()
			return sink(r)
		}
	}
	summaries := make([]Summary, len(f.sessions))
	var wg sync.WaitGroup
	for i, s := range f.sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum, err := s.run(f, serial)
			sum.Err = err
			summaries[i] = sum
		}()
	}
	wg.Wait()
	removeListener()

	if f.inc != nil {
		// Resolve survivors before the log closes so every lifecycle
		// event — end-of-run resolutions included — lands in it.
		f.incidents = f.inc.CloseOut()
	}
	if f.events != nil {
		// One end-of-run stats record per bus, then close — even after
		// a failed replay, so the partial event stream and its stats
		// survive for diagnosis.
		for _, s := range f.sessions {
			_ = f.events.Emit(obs.Event{Kind: obs.EventStats, Bus: s.name, Stats: s.reg.Snapshot()})
		}
		if err := f.events.Close(nil); err != nil {
			for i := range summaries {
				if summaries[i].Err == nil {
					summaries[i].Err = err
				}
			}
		}
	}
	errs := make([]error, 0, len(summaries))
	for i := range summaries {
		if summaries[i].Err != nil {
			errs = append(errs, fmt.Errorf("bus %s: %w", summaries[i].Bus, summaries[i].Err))
		}
	}
	return summaries, errors.Join(errs...)
}

// flightRoute serves a bus's live flight recorder at /debug/flight:
// ?bus= names the bus, the first one by default.
func (f *Fleet) flightRoute() obs.Route {
	return obs.Route{Pattern: "/debug/flight", Handler: http.HandlerFunc(
		func(w http.ResponseWriter, req *http.Request) {
			bus := req.URL.Query().Get("bus")
			for _, s := range f.sessions {
				if bus != "" && s.name != bus {
					continue
				}
				if rec := s.recorder(); rec != nil {
					rec.ServeHTTP(w, req)
					return
				}
				break
			}
			http.Error(w, "no flight recorder running for this bus", http.StatusNotFound)
		})}
}
