package engine_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"vprofile/internal/engine"
	"vprofile/internal/ids"
	"vprofile/internal/obs/incident"
	"vprofile/internal/obs/tracing"
)

// TestFleetMasqueradeIncident is the acceptance scenario: a four-bus
// fleet where the same spoofed source address attacks every bus must
// produce exactly one fleet-correlated incident, carrying per-bus
// evidence and linked flight bundles — while the /fleet endpoints
// serve health and incidents mid-run.
func TestFleetMasqueradeIncident(t *testing.T) {
	// A wider margin than the shared test model's silences its sparse
	// single-frame false positives without touching the foreign
	// device's gross distances — the scenario needs a fleet whose only
	// sustained anomaly is the masquerade.
	m := cloneModel(t, sharedModel(t))
	m.Margin = 3
	dir := t.TempDir()
	var captures []string
	for i := 0; i < 4; i++ {
		p := filepath.Join(dir, fmt.Sprintf("bus%d.vptr", i))
		captures = append(captures, writeFile(t, p, buildCapture(t, 201+int64(i)*100, 700, 250)))
	}
	flightDir := filepath.Join(dir, "flight")
	eventsPath := filepath.Join(dir, "events.jsonl")

	// The addr arrives over logf before the buses start replaying, so
	// a blocking read from the sink cannot deadlock.
	addrCh := make(chan string, 1)
	logf := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		if i := strings.Index(msg, "http://"); i >= 0 && strings.HasSuffix(msg, "/fleet") {
			select {
			case addrCh <- strings.TrimSuffix(msg[i+len("http://"):], "/fleet"):
			default:
			}
		}
	}

	fleet, err := engine.NewFleet(captures,
		engine.WithModel(m),
		engine.WithWorkers(4),
		engine.WithQuarantine(true),
		engine.WithMetricsAddr("127.0.0.1:0"),
		engine.WithEventsPath(eventsPath),
		engine.WithFlightRecorder(flightDir, 4),
		engine.WithLogf(logf),
		// All four buses must join within a tight window for a fleet
		// incident: the masquerade alarms every few milliseconds on
		// every bus, while the model's sparse false positives on other
		// SAs are spread ~1s apart per bus — density, not mere
		// co-occurrence, is the fleet signal. The quiet window outlasts
		// the capture so the attack produces one incident, not a
		// resolve/reopen chain.
		engine.WithIncidentConfig(incident.Config{CorrelateBuses: 4, WindowSec: 0.4, QuietSec: 1000}),
	)
	if err != nil {
		t.Fatal(err)
	}

	// Scrape the live endpoints once, mid-run, from the sink.
	var scraped atomic.Bool
	var seen atomic.Int64
	scrape := func(t *testing.T) {
		addr := <-addrCh
		for _, path := range []string{"/fleet", "/fleet/incidents", "/fleet/topk"} {
			resp, err := http.Get("http://" + addr + path)
			if err != nil {
				t.Errorf("mid-run %s: %v", path, err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !json.Valid(body) {
				t.Errorf("mid-run %s: invalid JSON", path)
			}
			if path == "/fleet" {
				var fl struct {
					Buses []incident.BusHealth `json:"buses"`
				}
				if err := json.Unmarshal(body, &fl); err != nil || len(fl.Buses) != 4 {
					t.Errorf("mid-run /fleet buses = %d, want 4 (%v)", len(fl.Buses), err)
				}
			}
		}
		scraped.Store(true)
	}
	sums, err := fleet.Run(func(res engine.Result) error {
		// Late enough that every bus has started, early enough that
		// none has finished.
		if seen.Add(1) == 2000 {
			scrape(t)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 4 {
		t.Fatalf("summaries = %d", len(sums))
	}
	if !scraped.Load() {
		t.Fatal("mid-run scrape never ran")
	}

	all := fleet.Incidents()
	var fleetIncidents []incident.Snapshot
	for _, s := range all {
		if s.Scope == incident.ScopeFleet {
			fleetIncidents = append(fleetIncidents, s)
		}
	}
	if len(fleetIncidents) != 1 {
		t.Fatalf("fleet-correlated incidents = %d, want exactly 1:\n%s",
			len(fleetIncidents), incident.FormatTable(all))
	}
	fi := fleetIncidents[0]
	if len(fi.BusEvidence) != 4 {
		t.Fatalf("fleet incident covers %d buses, want 4: %v", len(fi.BusEvidence), fi.BusNames())
	}
	bundled := 0
	for _, e := range fi.BusEvidence {
		if e.Alarms == 0 {
			t.Fatalf("bus %s contributed no alarms", e.Bus)
		}
		bundled += len(e.Bundles)
	}
	if bundled == 0 {
		t.Fatal("fleet incident has no linked flight bundles")
	}
	// The sustained masquerade degrades the spoofed SA, which must
	// have escalated the incident.
	if fi.Severity != "critical" {
		t.Fatalf("fleet incident severity = %s, want critical", fi.Severity)
	}

	// A linked bundle's on-disk metadata carries the incident id.
	var ref string
	var refBus string
	for _, e := range fi.BusEvidence {
		if len(e.Bundles) > 0 {
			ref, refBus = e.Bundles[0], e.Bus
			break
		}
	}
	b, err := tracing.ReadBundle(filepath.Join(flightDir, refBus, ref))
	if err != nil {
		t.Fatalf("linked bundle unreadable: %v", err)
	}
	// The bundle may have been stamped before correlation tripped, in
	// which case its id is the single-bus incident that merged into the
	// fleet one — the join chain must still land on fi.
	if b.Incident != fi.ID {
		joined := false
		for _, s := range all {
			if s.ID == b.Incident && s.Resolution == "correlated into "+fi.ID {
				joined = true
				break
			}
		}
		if !joined {
			t.Fatalf("bundle incident %q joins neither %q nor a merged predecessor", b.Incident, fi.ID)
		}
	}

	// The shared event log carries the lifecycle: exactly one
	// fleet-scoped open, and at least matching resolves.
	data, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	opens, resolves := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var e struct {
			Kind     string `json:"kind"`
			Scope    string `json:"scope"`
			Incident string `json:"incident"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad event line: %v", err)
		}
		switch e.Kind {
		case "incident_open":
			if e.Scope == incident.ScopeFleet {
				opens++
				if e.Incident != fi.ID {
					t.Fatalf("fleet open for %q, want %q", e.Incident, fi.ID)
				}
			}
		case "incident_resolve":
			resolves++
		}
	}
	if opens != 1 {
		t.Fatalf("fleet incident_open events = %d, want exactly 1", opens)
	}
	if resolves == 0 {
		t.Fatal("no incident_resolve events in the log")
	}
}

// TestIncidentsDoNotPerturbVerdicts replays a two-bus fleet with the
// full incident layer on, at several worker counts, and requires every
// verdict to stay bit-identical to the sequential reference — the
// observability layer observes, it never steers.
func TestIncidentsDoNotPerturbVerdicts(t *testing.T) {
	m := sharedModel(t)
	dir := t.TempDir()
	pa := writeFile(t, filepath.Join(dir, "a.vptr"), buildCapture(t, 201, 700, 250))
	pb := writeFile(t, filepath.Join(dir, "b.vptr"), buildCapture(t, 301, 650, 200))
	refs := map[string][]ids.CompositeResult{
		"a": sequentialRef(t, pa, m),
		"b": sequentialRef(t, pb, m),
	}

	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			fleet, err := engine.NewFleet([]string{pa, pb},
				engine.WithModel(m), engine.WithWorkers(workers),
				engine.WithIncidentConfig(incident.Config{CorrelateBuses: 2}))
			if err != nil {
				t.Fatal(err)
			}
			got := map[string][]ids.CompositeResult{}
			if _, err := fleet.Run(func(res engine.Result) error {
				got[res.Bus] = append(got[res.Bus], res.Verdict)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for bus, ref := range refs {
				if len(got[bus]) != len(ref) {
					t.Fatalf("bus %s: %d results, want %d", bus, len(got[bus]), len(ref))
				}
				for i := range ref {
					if d := diffResults(got[bus][i], ref[i]); d != "" {
						t.Fatalf("bus %s record %d: %s", bus, i, d)
					}
				}
			}
			if fleet.Incidents() == nil {
				t.Fatal("incident layer produced no history on an attacked fleet")
			}
		})
	}
}

// TestSessionIncidents runs a single capture with the incident layer:
// the attack shows up as a single-bus incident filed under the
// capture's bus name.
func TestSessionIncidents(t *testing.T) {
	m := sharedModel(t)
	dir := t.TempDir()
	path := writeFile(t, filepath.Join(dir, "solo.vptr"), buildCapture(t, 201, 700, 250))
	fleet, err := engine.NewFleet([]string{path},
		engine.WithModel(m),
		engine.WithIncidentConfig(incident.Config{QuietSec: 1000}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Run(nil); err != nil {
		t.Fatal(err)
	}
	if len(fleet.Incidents()) == 0 {
		t.Fatal("single-capture run recorded no incidents over an attacked capture")
	}
	for _, in := range fleet.Incidents() {
		if in.Scope != incident.ScopeSingleBus {
			t.Fatalf("single-capture run produced a %s incident", in.Scope)
		}
		if got := in.BusNames(); len(got) != 1 || got[0] != "solo" {
			t.Fatalf("incident bus = %v, want [solo]", got)
		}
	}
}
