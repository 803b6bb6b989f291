package engine_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vprofile/internal/engine"
	"vprofile/internal/ids"
)

// TestSwapListenersRemoved runs sessions and fleets against one
// long-lived store, the way the daemon runs one session per feed:
// every run must remove the swap listeners it registered, or each
// finished run pins its registries and drift monitors for the store's
// lifetime.
func TestSwapListenersRemoved(t *testing.T) {
	m := sharedModel(t)
	dir := t.TempDir()
	pa := writeFile(t, filepath.Join(dir, "a.vptr"), buildCapture(t, 201, 120, 20))
	pb := writeFile(t, filepath.Join(dir, "b.vptr"), buildCapture(t, 301, 120, 20))
	st, err := engine.NewModelStore(m)
	if err != nil {
		t.Fatal(err)
	}
	start := st.Listeners()
	for i := 1; i <= 5; i++ {
		s := engine.NewSession(pa, engine.WithStore(st), engine.WithDrift(true))
		if _, err := s.Run(nil); err != nil {
			t.Fatal(err)
		}
		if n := st.Listeners(); n != start {
			t.Fatalf("after session %d: %d swap listeners, want %d", i, n, start)
		}
	}
	for i := 1; i <= 3; i++ {
		f, err := engine.NewFleet([]string{pa, pb}, engine.WithStore(st), engine.WithDrift(true))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Run(nil); err != nil {
			t.Fatal(err)
		}
		if n := st.Listeners(); n != start {
			t.Fatalf("after fleet %d: %d swap listeners, want %d", i, n, start)
		}
	}
}

// oneCaptureRun is everything a single-capture replay leaves behind
// that must not depend on whether it ran as a Session or a Fleet.
type oneCaptureRun struct {
	buses    []string
	indices  []int
	verdicts []ids.CompositeResult
	sum      engine.Summary
	events   []map[string]any
	bundles  []string
}

// readRun collects the event log and the flight bundle listing a
// finished run left in dir. Stats payloads are dropped (they hold
// latency histograms) and paths are made relative to dir.
func readRun(t *testing.T, r *oneCaptureRun, dir string) {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var e map[string]any
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		delete(e, "stats")
		if d, ok := e["detail"].(string); ok {
			e["detail"] = strings.ReplaceAll(d, dir, "")
		}
		r.events = append(r.events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "flight"))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		r.bundles = append(r.bundles, de.Name())
	}
	// Wall-clock accounting is the one thing two runs never share.
	r.sum.Stats.WallTime, r.sum.Stats.WorkerBusy = 0, 0
}

// TestOneCaptureSessionMatchesFleet replays one capture as a Session
// and as a one-capture Fleet with every layer on: the verdict stream,
// summary, event log and bundle listing must be identical — a
// standalone session is a one-bus fleet, not a second code path.
func TestOneCaptureSessionMatchesFleet(t *testing.T) {
	m := sharedModel(t)
	dir := t.TempDir()
	path := writeFile(t, filepath.Join(dir, "solo.vptr"), buildCapture(t, 201, 700, 250))
	opts := func(sub string) []engine.Option {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		return []engine.Option{
			engine.WithModel(m), engine.WithWorkers(4), engine.WithBatch(8),
			engine.WithQuarantine(true), engine.WithDrift(true), engine.WithIncidents(true),
			engine.WithEventsPath(filepath.Join(dir, sub, "events.jsonl")),
			engine.WithFlightRecorder(filepath.Join(dir, sub, "flight"), 4),
		}
	}
	collect := func(r *oneCaptureRun, emit func(engine.Result) error) engine.Sink {
		return func(res engine.Result) error {
			r.buses = append(r.buses, res.Bus)
			r.indices = append(r.indices, res.Index)
			r.verdicts = append(r.verdicts, res.Verdict)
			return emit(res)
		}
	}

	var viaSession oneCaptureRun
	sessTally := engine.NewTally()
	s := engine.NewSession(path, append(opts("session"), engine.WithName("solo"))...)
	sum, err := s.Run(collect(&viaSession, func(res engine.Result) error {
		for _, e := range sessTally.Observe(res.Result) {
			if err := s.EmitEvent(e); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	viaSession.sum = sum
	readRun(t, &viaSession, filepath.Join(dir, "session"))

	var viaFleet oneCaptureRun
	fleetTally := engine.NewTally()
	fleet, err := engine.NewFleet([]string{path}, opts("fleet")...)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := fleet.Run(collect(&viaFleet, func(res engine.Result) error {
		for _, e := range fleetTally.Observe(res.Result) {
			e.Bus = res.Bus
			if err := fleet.EmitEvent(e); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	viaFleet.sum = sums[0]
	readRun(t, &viaFleet, filepath.Join(dir, "fleet"))

	if len(viaSession.verdicts) == 0 || len(viaSession.verdicts) != len(viaFleet.verdicts) {
		t.Fatalf("session delivered %d verdicts, fleet %d", len(viaSession.verdicts), len(viaFleet.verdicts))
	}
	for i, a := range viaSession.verdicts {
		b := viaFleet.verdicts[i]
		if viaSession.buses[i] != viaFleet.buses[i] || viaSession.indices[i] != viaFleet.indices[i] {
			t.Fatalf("result %d: session bus %q index %d, fleet bus %q index %d", i,
				viaSession.buses[i], viaSession.indices[i], viaFleet.buses[i], viaFleet.indices[i])
		}
		if d := diffResults(a, b); d != "" {
			t.Fatalf("record %d: %s", i, d)
		}
		if a.SAState != b.SAState || a.PrevSAState != b.PrevSAState || a.Suppressed != b.Suppressed {
			t.Fatalf("record %d: quarantine %v/%v/%v vs %v/%v/%v", i,
				a.PrevSAState, a.SAState, a.Suppressed, b.PrevSAState, b.SAState, b.Suppressed)
		}
	}
	if !reflect.DeepEqual(viaSession.sum, viaFleet.sum) {
		t.Fatalf("summaries differ:\nsession %+v\nfleet   %+v", viaSession.sum, viaFleet.sum)
	}
	if viaSession.sum.Flight == nil || viaSession.sum.Flight.Bundles == 0 || viaSession.sum.Drift == nil {
		t.Fatalf("test is vacuous: flight %+v, drift %v", viaSession.sum.Flight, viaSession.sum.Drift)
	}
	if len(viaSession.events) != len(viaFleet.events) {
		t.Fatalf("event logs differ: session %d records, fleet %d", len(viaSession.events), len(viaFleet.events))
	}
	for i, e := range viaSession.events {
		if !reflect.DeepEqual(e, viaFleet.events[i]) {
			t.Fatalf("event %d differs:\nsession %v\nfleet   %v", i, e, viaFleet.events[i])
		}
	}
	if !reflect.DeepEqual(viaSession.bundles, viaFleet.bundles) {
		t.Fatalf("bundle listings differ:\nsession %v\nfleet   %v", viaSession.bundles, viaFleet.bundles)
	}
}

// TestSessionServesMetricsAndFlight scrapes a single-capture run's
// endpoint mid-replay: /metrics carries the bus's instruments and
// /debug/flight the live recorder.
func TestSessionServesMetricsAndFlight(t *testing.T) {
	m := sharedModel(t)
	dir := t.TempDir()
	path := writeFile(t, filepath.Join(dir, "solo.vptr"), buildCapture(t, 201, 300, 50))
	// The addr arrives over logf before the replay starts, so the sink
	// can read it without blocking.
	addrCh := make(chan string, 1)
	logf := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		if strings.HasPrefix(msg, "serving /metrics") {
			addrCh <- msg[strings.Index(msg, "http://")+len("http://"):]
		}
	}
	s := engine.NewSession(path, engine.WithModel(m), engine.WithLogf(logf),
		engine.WithMetricsAddr("127.0.0.1:0"), engine.WithFlightRecorder(filepath.Join(dir, "flight"), 4))
	get := func(url string) string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
		}
		return string(body)
	}
	scraped := false
	_, err := s.Run(func(res engine.Result) error {
		if res.Index != 100 {
			return nil
		}
		addr := <-addrCh
		if metrics := get("http://" + addr + "/metrics"); !strings.Contains(metrics, "vprofile_pipeline_records_out_total") {
			t.Errorf("/metrics lacks the pipeline instruments:\n%s", metrics)
		}
		var flight struct {
			Frames int64 `json:"frames"`
		}
		if err := json.Unmarshal([]byte(get("http://"+addr+"/debug/flight")), &flight); err != nil {
			t.Errorf("/debug/flight: %v", err)
		}
		if flight.Frames == 0 {
			t.Error("/debug/flight reports no traced frames mid-replay")
		}
		scraped = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !scraped {
		t.Fatal("mid-run scrape never ran")
	}
}
