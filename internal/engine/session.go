package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"vprofile/internal/core"
	"vprofile/internal/edgeset"
	"vprofile/internal/ids"
	"vprofile/internal/obs"
	"vprofile/internal/obs/drift"
	"vprofile/internal/obs/incident"
	"vprofile/internal/obs/tracing"
	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
)

// AbortError marks a replay that died mid-stream — the verdict stream
// is incomplete, as opposed to a configuration error that prevented
// it from starting. The CLIs map it to a distinct exit code (3) so
// scripts can tell "the capture went bad under us" (stall watchdog,
// unrecovered corruption) from ordinary usage errors.
type AbortError struct{ Err error }

func (e *AbortError) Error() string { return "replay aborted: " + e.Err.Error() }
func (e *AbortError) Unwrap() error { return e.Err }

// classify wraps mid-stream death in AbortError and passes everything
// else through.
func classify(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, pipeline.ErrStalled) || errors.Is(err, trace.ErrCorrupt) {
		return &AbortError{Err: err}
	}
	return err
}

// ExtractionFor derives the edge-set extraction parameters from a
// capture header, scaling the paper's 10 MS/s reference values to the
// capture's actual sample rate.
func ExtractionFor(h trace.Header) edgeset.Config {
	perBit := int(h.ADC.SamplesPerBit(h.BitRate))
	scale := float64(perBit) / 40.0
	prefix := int(2 * scale)
	if prefix < 1 {
		prefix = 1
	}
	suffix := int(14 * scale)
	if suffix < 3 {
		suffix = 3
	}
	return edgeset.Config{
		BitWidth:     perBit,
		BitThreshold: h.ADC.VoltsToCode(1.0),
		PrefixLen:    prefix,
		SuffixLen:    suffix,
	}
}

// Result is one record's verdict tagged with the bus it came from
// (empty on single-bus runs).
type Result struct {
	Bus string
	pipeline.Result
}

// Sink receives results in record order (per bus). A non-nil error
// stops that bus's replay. A fleet serialises the calls, so one sink
// may be shared across buses without locking. As with
// pipeline.Result, a result's Record and Frame are valid only for the
// duration of the call: their buffers are recycled once it returns,
// so a sink that keeps them must copy.
type Sink func(Result) error

// Summary is everything a session learned by the end of its replay —
// the data the CLIs print after the verdict stream finishes.
type Summary struct {
	Bus     string
	Capture string
	Header  trace.Header
	Stats   pipeline.Stats
	// Corruptions lists the damaged stretches a recovery-enabled reader
	// resynced past.
	Corruptions []trace.RecoveredCorruption
	// SilentStreams and DegradedSAs snapshot the stateful detectors at
	// end of capture.
	SilentStreams []uint32
	DegradedSAs   int
	// Flight is the flight recorder's accounting (nil when off).
	Flight *tracing.Stats
	// ModelVersion is the model generation at end of replay;
	// ModelSwaps counts hot swaps observed during it.
	ModelVersion int
	ModelSwaps   int
	// Incidents is the incident history of a standalone session that
	// ran with WithIncidents (nil otherwise; fleet members report
	// through Fleet.Incidents instead).
	Incidents []incident.Snapshot
	// Drift is the end-of-run drift-detector snapshot (nil when the
	// drift layer is off).
	Drift *drift.Snapshot
	// Gaps is the datagram sequence-gap accounting for lossy (UDP)
	// stream sources; nil for files and lossless sockets.
	Gaps *trace.GapStats
	// Live is true on a mid-stream Snapshot — the replay is still
	// running and end-of-run-only fields (SilentStreams, Incidents,
	// Flight) are not populated yet.
	Live bool
	// Err is the session's replay error — populated on fleet runs,
	// where one bus's failure must not hide the others' summaries.
	Err error
}

// Session is one capture→verdict run: it owns opening the source,
// building the composite IDS, wiring observability and running the
// concurrent replay. Build with NewSession + options, run once with
// Run. The zero value is not usable.
type Session struct {
	capture string
	name    string
	// source, when set, replaces opening the capture file: the session
	// streams records from it instead (live ingestion).
	source *StreamSource

	model     *core.Model
	modelPath string
	store     *ModelStore
	ownStore  bool

	workers int
	batch   int
	pool    *pipeline.Pool

	metricsAddr  string
	registry     *obs.Registry
	events       *obs.EventLog
	ownEvents    bool
	eventsPath   string
	flightDir    string
	flightWindow int

	quarantine bool
	quarCfg    *ids.QuarantineConfig
	recovery   bool
	stall      time.Duration
	watch      time.Duration

	// Incident-layer state (see incidents.go): incidents turns the
	// layer on, incCfg optionally tunes it, inc is the correlator (a
	// fleet injects a shared one; a standalone session builds and
	// closes its own — ownInc), maxEvents caps an owned event log.
	incidents bool
	incCfg    *incident.Config
	inc       *incident.Correlator
	ownInc    bool
	maxEvents int

	// Drift-layer state (see drift.go): drift turns the layer on,
	// driftCfg optionally tunes the detectors, driftMon is the monitor
	// (a fleet injects a shared-lifecycle one per bus; a standalone
	// session builds its own — ownDrift).
	drift    bool
	driftCfg *drift.Config
	driftMon *drift.Monitor
	ownDrift bool

	logf func(format string, args ...any)

	// live is the state a mid-stream Snapshot reads while Run is in
	// flight: everything in it is either immutable after Run's setup
	// (src, store, startVersion), internally synchronised
	// (pipeline.Replayer.Stats, drift.Monitor.Status,
	// trace.Reader.Corruptions), or written exactly once at the end
	// (final). degraded is kept separately by the sink wrapper so the
	// snapshot never touches the composite's unsynchronised quarantine
	// state.
	live struct {
		mu           sync.Mutex
		src          *StreamSource
		rep          *pipeline.Replayer
		driftMon     *drift.Monitor
		store        *ModelStore
		startVersion int
		started      bool
		stopEarly    bool
		final        *Summary
	}
	degraded atomic.Int64
}

// Option configures a Session (and, via NewFleet, every session of a
// fleet).
type Option func(*Session)

// WithName tags the session's results, events and metrics with a bus
// name. Fleets derive names from capture filenames automatically.
func WithName(name string) Option { return func(s *Session) { s.name = name } }

// WithModelPath lazily loads the model from disk (LoadModelFile).
func WithModelPath(path string) Option { return func(s *Session) { s.modelPath = path } }

// WithModel supplies an already-loaded model.
func WithModel(m *core.Model) Option { return func(s *Session) { s.model = m } }

// WithStore runs the session against an externally-owned hot-swap
// store (shared across a fleet). The session then neither creates a
// store nor drives -model-watch itself.
func WithStore(st *ModelStore) Option { return func(s *Session) { s.store = st } }

// WithWorkers sets the extraction pool size (0 = GOMAXPROCS).
func WithWorkers(n int) Option { return func(s *Session) { s.workers = n } }

// WithBatch sets the records-per-batch granularity of the replay
// pipeline (0 = pipeline.DefaultBatch, 1 = per-record handoff).
// Verdicts are identical at every batch size.
func WithBatch(n int) Option { return func(s *Session) { s.batch = n } }

// WithPool runs the hot path on a shared worker pool instead of a
// private one; the pool must outlive the session.
func WithPool(p *pipeline.Pool) Option { return func(s *Session) { s.pool = p } }

// WithMetricsAddr serves /metrics, /metrics.json, /debug/pprof/ (and
// /debug/flight when flight recording) for the replay's duration.
func WithMetricsAddr(addr string) Option { return func(s *Session) { s.metricsAddr = addr } }

// WithRegistry mounts the session's instruments on an external
// registry (a fleet's per-bus group member) instead of a private one.
func WithRegistry(reg *obs.Registry) Option { return func(s *Session) { s.registry = reg } }

// WithEventsPath writes a JSONL event log (plus an end-of-run stats
// snapshot) to path.
func WithEventsPath(path string) Option { return func(s *Session) { s.eventsPath = path } }

// WithEventLog emits events to an externally-owned log (a fleet's
// shared log). The session tags its records with its bus name and
// does not close the log.
func WithEventLog(l *obs.EventLog) Option { return func(s *Session) { s.events = l } }

// WithFlightRecorder traces every frame and freezes forensic bundles
// around alarms into dir, with window frames of pre/post context.
func WithFlightRecorder(dir string, window int) Option {
	return func(s *Session) { s.flightDir, s.flightWindow = dir, window }
}

// WithQuarantine enables the per-SA degradation state machine.
func WithQuarantine(on bool) Option { return func(s *Session) { s.quarantine = on } }

// WithQuarantineConfig enables quarantine with explicit thresholds
// (the fleet policy's per-bus tuning); zero fields take the defaults.
func WithQuarantineConfig(cfg ids.QuarantineConfig) Option {
	return func(s *Session) { s.quarantine, s.quarCfg = true, &cfg }
}

// WithSource streams records from an already-attached source instead
// of opening a capture file — the daemon's live-ingestion path. The
// session takes ownership (Run closes it).
func WithSource(src *StreamSource) Option { return func(s *Session) { s.source = src } }

// WithRecovery tolerates capture corruption: the reader resyncs past
// damaged records instead of aborting.
func WithRecovery(on bool) Option { return func(s *Session) { s.recovery = on } }

// WithStallTimeout arms the slow-sink watchdog (0 disables).
func WithStallTimeout(d time.Duration) Option { return func(s *Session) { s.stall = d } }

// WithModelWatch polls the model file every interval and hot-swaps
// the model when it changes (0 disables). Requires WithModelPath and
// a session-owned store.
func WithModelWatch(interval time.Duration) Option { return func(s *Session) { s.watch = interval } }

// WithLogf routes the session's informational messages (serving
// addresses, model swaps); nil silences them.
func WithLogf(fn func(format string, args ...any)) Option { return func(s *Session) { s.logf = fn } }

// NewSession builds a session over one capture file.
func NewSession(capture string, opts ...Option) *Session {
	s := &Session{capture: capture, flightWindow: 8}
	for _, o := range opts {
		o(s)
	}
	return s
}

// EmitEvent appends one event to the session's log, tagged with the
// session's bus name. It is a no-op (nil) without an event log. Call
// it from the Run sink — the log exists for exactly that window.
func (s *Session) EmitEvent(e obs.Event) error {
	if s.events == nil {
		return nil
	}
	if e.Bus == "" {
		e.Bus = s.name
	}
	return s.events.Emit(e)
}

// resolveStore produces the session's model provider, loading the
// model from disk when only a path was given.
func (s *Session) resolveStore() error {
	if s.store != nil {
		return nil
	}
	m := s.model
	if m == nil {
		if s.modelPath == "" {
			return errors.New("engine: session needs a model (WithModel, WithModelPath or WithStore)")
		}
		var err error
		m, err = LoadModelFile(s.modelPath)
		if err != nil {
			return err
		}
	}
	st, err := NewModelStore(m)
	if err != nil {
		return err
	}
	s.store, s.ownStore = st, true
	return nil
}

// Run replays the capture to completion (or first error), delivering
// verdicts to sink in record order. It may be called once; the
// returned Summary is valid even on error (with the fields reached so
// far). Mid-stream death (stall watchdog, unrecovered corruption)
// comes back wrapped in *AbortError.
func (s *Session) Run(sink Sink) (Summary, error) {
	logf := s.logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	sum := Summary{Bus: s.name, Capture: s.capture}
	if err := s.resolveStore(); err != nil {
		return sum, err
	}
	startVersion := s.store.Version()

	var err error
	rd := s.source
	if rd == nil {
		rd, err = OpenCaptureSource(s.capture)
		if err != nil {
			return sum, err
		}
	}
	defer rd.Close()
	if sum.Capture == "" {
		sum.Capture = rd.Name()
	}
	if s.recovery {
		rd.EnableRecovery()
	}
	h := rd.Header()
	sum.Header = h

	s.live.mu.Lock()
	s.live.src = rd
	s.live.store = s.store
	s.live.startVersion = startVersion
	s.live.started = true
	if s.live.stopEarly {
		// Stop raced ahead of Run: honour it before the first record.
		rd.Stop()
	}
	s.live.mu.Unlock()

	// Observability: one registry feeds the live HTTP endpoint, the
	// instrumented pipeline/detector stack, and the end-of-run
	// snapshot in the event log. A fleet injects the registry (a group
	// member) and the shared event log; a standalone session owns both.
	reg := s.registry
	wantObs := s.metricsAddr != "" || s.eventsPath != "" || s.events != nil || s.incidents || s.drift
	if reg == nil && wantObs {
		reg = obs.NewRegistry()
	}
	var pm *pipeline.Metrics
	var im *ids.Metrics
	if reg != nil {
		pm = pipeline.NewMetrics(reg)
		im = ids.NewMetrics(reg)
		rd.SetMetrics(trace.NewMetrics(reg))
	}
	if s.events == nil && s.eventsPath != "" {
		s.events, err = obs.CreateEventLog(s.eventsPath)
		if err != nil {
			return sum, err
		}
		s.ownEvents = true
		if s.maxEvents > 0 {
			s.events.SetMaxEvents(s.maxEvents)
		}
	}
	incStream := s.setupIncidents(reg)
	driftMon := s.setupDrift(reg, incStream)
	if driftMon != nil {
		s.live.mu.Lock()
		s.live.driftMon = driftMon
		s.live.mu.Unlock()
	}
	var recorder *tracing.Recorder
	if s.flightDir != "" {
		rcfg := tracing.RecorderConfig{
			Window: s.flightWindow, Dir: s.flightDir, Header: h, Events: s.events,
		}
		if incStream != nil {
			// Stamp each finished bundle with the incident that was open
			// for its (bus, SA) — and file the bundle as incident
			// evidence — before it hits disk, so bundle.json carries the
			// join key.
			stream := incStream
			rcfg.Tag = func(b *tracing.Bundle) {
				b.Incident = stream.LinkBundle(b.SA, b.DirName())
			}
		}
		recorder, err = tracing.NewRecorder(rcfg)
		if err != nil {
			return sum, err
		}
	}
	if s.metricsAddr != "" {
		var routes []obs.Route
		if recorder != nil {
			routes = append(routes, obs.Route{Pattern: "/debug/flight", Handler: recorder})
		}
		var exp obs.Exporter = reg
		if reg != nil {
			// Self-telemetry refreshes at scrape time, on the same
			// registry the replay instruments.
			rs := obs.NewRuntimeStats(reg)
			exp = obs.CollectedExporter(reg, rs.Collect)
		}
		if s.ownInc {
			routes = append(routes, s.inc.Routes()...)
		}
		if driftMon != nil {
			routes = append(routes, driftMon.Route())
		}
		srv, err := obs.Serve(s.metricsAddr, exp, routes...)
		if err != nil {
			return sum, err
		}
		// Drain in-flight scrapes briefly instead of cutting them off
		// mid-response.
		defer func() { _ = srv.ShutdownTimeout(2 * time.Second) }()
		logf("serving /metrics and /debug/pprof/ on http://%s", srv.Addr())
		if recorder != nil {
			logf("flight recorder live at http://%s/debug/flight", srv.Addr())
		}
	}

	// Model hot-swap surfacing: the version gauge tracks swaps on this
	// session's registry; a session that owns its store also emits the
	// model_swap event and drives the file watch (a fleet does both
	// fleet-wide instead).
	started := time.Now()
	if reg != nil {
		g := reg.Gauge("vprofile_engine_model_version",
			"current hot-swap model generation (1 = the model loaded at start)")
		g.Set(int64(startVersion))
		s.store.OnSwap(func(sm StoredModel) { g.Set(int64(sm.Version)) })
	}
	if driftMon != nil && s.ownDrift {
		// A hot swap changes the distribution distances are drawn from:
		// drift baselines re-freeze against the new model instead of
		// reading the model change itself as drift. (Fleet-injected
		// monitors are reset fleet-wide by the fleet instead.)
		mon := driftMon
		s.store.OnSwap(func(StoredModel) { mon.ResetBaseline() })
	}
	if s.ownStore {
		if s.events != nil {
			events := s.events
			bus := s.name
			s.store.OnSwap(func(sm StoredModel) {
				_ = events.Emit(obs.Event{
					TimeSec: time.Since(started).Seconds(), Kind: obs.EventModelSwap,
					Bus: bus, Severity: obs.SeverityInfo,
					Detail: modelSwapDetail(sm),
				})
			})
		}
		if s.watch > 0 {
			if s.modelPath == "" {
				return sum, errors.New("engine: model watch needs a model path")
			}
			stop := make(chan struct{})
			defer close(stop)
			go s.store.Watch(s.modelPath, s.watch, stop, s.logf)
		}
	}

	mcfg := ids.CompositeConfig{Extraction: ExtractionFor(h), Models: s.store, Metrics: im}
	if s.quarantine {
		mcfg.Quarantine = &ids.QuarantineConfig{}
		if s.quarCfg != nil {
			mcfg.Quarantine = s.quarCfg
		}
		if incStream != nil {
			// Quarantine transitions reach the incident layer as
			// structured notifications, not by polling: degradation
			// escalates the covering incident and counts toward the
			// bus's health occupancy. Sequence runs single-goroutine, in
			// record order — exactly the order the correlator wants.
			stream := incStream
			mcfg.OnQuarantine = func(ch ids.QuarantineChange) {
				stream.ObserveQuarantine(ch.SA, ch.To.String(), ch.AtSec)
			}
		}
	}
	mon, err := ids.NewComposite(nil, mcfg)
	if err != nil {
		return sum, err
	}

	var pfn pipeline.Sink
	if sink != nil {
		bus := s.name
		pfn = func(r pipeline.Result) error { return sink(Result{Bus: bus, Result: r}) }
	}
	if s.quarantine {
		// Track the degraded-SA population on an atomic so a mid-stream
		// Snapshot never reads the composite's quarantine map while the
		// sequencer is writing it. Wrapped innermost: the count is
		// updated even when drift/incident wrappers or the user sink
		// error out later in the chain.
		deg, inner := &s.degraded, pfn
		pfn = func(r pipeline.Result) error {
			if r.Verdict.QuarantineChanged() {
				if r.Verdict.SAState == ids.SADegraded {
					deg.Add(1)
				} else if r.Verdict.PrevSAState == ids.SADegraded {
					deg.Add(-1)
				}
			}
			if inner != nil {
				return inner(r)
			}
			return nil
		}
	}
	if driftMon != nil {
		// Scored frames feed the drift sketches. Wrapped before the
		// incident layer so per frame the correlator sees alarm evidence
		// first and drift transitions second (the correlator re-checks
		// standing drift on every alarm anyway).
		mon, store, inner := driftMon, s.store, pfn
		pfn = func(r pipeline.Result) error {
			ObserveDrift(mon, store, r)
			if inner != nil {
				return inner(r)
			}
			return nil
		}
	}
	if incStream != nil {
		// Every verdict feeds the correlator, before the user sink, so
		// a mid-run /fleet scrape is never behind the verdict stream.
		// The wrapper exists even with no user sink — incidents are a
		// consumer in their own right.
		stream, inner := incStream, pfn
		pfn = func(r pipeline.Result) error {
			stream.Observe(IncidentEvidence(r))
			if inner != nil {
				return inner(r)
			}
			return nil
		}
	}
	rep, err := pipeline.New(mon, pipeline.Config{
		Workers: s.workers, Batch: s.batch, Pool: s.pool, Metrics: pm, Recorder: recorder, StallTimeout: s.stall,
	})
	if err != nil {
		return sum, err
	}
	s.live.mu.Lock()
	s.live.rep = rep
	s.live.mu.Unlock()
	err = rep.Run(rd, pfn)
	sum.Stats = rep.Stats()
	if recorder != nil {
		// Close before the event log: flushing truncated capture
		// windows emits their flight events.
		if cerr := recorder.Close(); cerr != nil && err == nil {
			err = cerr
		}
		fs := recorder.Stats()
		sum.Flight = &fs
	}
	if s.ownInc {
		// Close after the recorder (bundle tags emit their update
		// events) and before the event log (resolve events must land in
		// it).
		sum.Incidents = s.inc.CloseOut()
	}
	if s.events != nil {
		if s.ownEvents {
			// Close even on a failed replay so the partial event stream
			// and its stats snapshot survive for diagnosis.
			if cerr := s.events.Close(reg); cerr != nil && err == nil {
				err = cerr
			}
		} else if reg != nil {
			// Shared (fleet) log: contribute a per-bus stats record; the
			// fleet closes the log after every bus has.
			_ = s.events.Emit(obs.Event{Kind: obs.EventStats, Bus: s.name, Stats: reg.Snapshot()})
		}
	}
	if driftMon != nil {
		snap := driftMon.Status()
		sum.Drift = &snap
	}
	sum.Corruptions = rd.Corruptions()
	sum.SilentStreams = mon.SilentStreams()
	sum.DegradedSAs = mon.DegradedSAs()
	sum.ModelVersion = s.store.Version()
	sum.ModelSwaps = sum.ModelVersion - startVersion
	sum.Gaps = rd.Gaps()
	err = classify(err)
	s.live.mu.Lock()
	final := sum
	s.live.final = &final
	s.live.mu.Unlock()
	return sum, err
}

// Stop asks a running session to drain: the stream source ends at the
// next record boundary (interrupting a blocked transport read), the
// pipeline flushes, and Run returns with a complete Summary. Calling
// Stop before Run makes Run drain immediately after setup; calling it
// after Run returned is a no-op.
func (s *Session) Stop() {
	s.live.mu.Lock()
	src := s.live.src
	if src == nil {
		s.live.stopEarly = true
	}
	s.live.mu.Unlock()
	if src != nil {
		src.Stop()
	}
}

// Snapshot returns the session's state as of now, safe to call from
// any goroutine at any time. Before Run starts streaming it returns a
// zero summary; while the replay is live it returns a mid-stream view
// (Live=true) with Stats, Corruptions, DegradedSAs, model versioning,
// drift status and datagram gaps populated — SilentStreams, Incidents
// and Flight are end-of-run analyses and stay empty; after Run it
// returns the final Summary.
func (s *Session) Snapshot() Summary {
	s.live.mu.Lock()
	if s.live.final != nil {
		sum := *s.live.final
		s.live.mu.Unlock()
		return sum
	}
	src, rep, driftMon, store, startVersion, started :=
		s.live.src, s.live.rep, s.live.driftMon, s.live.store, s.live.startVersion, s.live.started
	s.live.mu.Unlock()

	sum := Summary{Bus: s.name, Capture: s.capture}
	if !started {
		return sum
	}
	sum.Live = true
	if sum.Capture == "" {
		sum.Capture = src.Name()
	}
	sum.Header = src.Header()
	if rep != nil {
		sum.Stats = rep.Stats()
	}
	sum.Corruptions = src.Corruptions()
	sum.DegradedSAs = int(s.degraded.Load())
	if store != nil {
		sum.ModelVersion = store.Version()
		sum.ModelSwaps = sum.ModelVersion - startVersion
	}
	if driftMon != nil {
		snap := driftMon.Status()
		sum.Drift = &snap
	}
	sum.Gaps = src.Gaps()
	return sum
}
