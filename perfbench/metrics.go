package main

// MetricDef describes one reported metric. For per-layer metrics,
// Moves lists the end-to-end metrics the layer should move, each as
// "metric@workload", and NoMove the workloads where the layer is
// predicted to leave every end-to-end metric alone. BENCHMARK.json
// carries name, unit and direction; this table is the layer →
// end-to-end map later performance changes cite ("metric X on
// workload Y, no move on Z").
type MetricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  []string
	NoMove []string
}

// endToEnd lists the metrics a --trace 0 run prints, on every
// workload. On the closed-loop workloads frames_per_s is the
// saturated throughput and alert latency is the time a frame spends
// between the reader taking it off the capture and its verdict
// reaching the sink, over every frame: in a saturated closed loop an
// alarm frame waits like any other, so this tracks queue depth. On
// live-daemon
// frames_per_s is the achieved verdict rate (the offered rate when the
// daemon keeps up) and alert latency runs from the frame's scheduled
// send to its alarm event at the client.
var endToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "frames_per_s", Unit: "frames/s", Better: "higher"},
	{Name: "cpu_ms_per_kframe", Unit: "ms", Better: "lower"},
	{Name: "allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "bytes_per_frame", Unit: "bytes", Better: "lower"},
	{Name: "alert_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "alert_latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "correct_frac", Unit: "ratio", Better: "higher"},
}

const (
	wReplay = "replay-b"
	wFleet  = "fleet-forensic"
	wLive   = "live-daemon"
)

// on pairs an end-to-end metric with each workload it should move on.
func on(metric string, workloads ...string) []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = metric + "@" + w
	}
	return out
}

func cat(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

var allWorkloads = []string{wReplay, wFleet, wLive}

// sinkTail is what the engine and obs sink-tail layers should move.
var sinkTail = cat(on("frames_per_s", wFleet), on("bytes_per_frame", wFleet), on("cpu_ms_per_kframe", wLive))

// perLayer lists the metrics a --trace 1 run prints, on every
// workload. A layer that is not on a workload's path reads 0 there.
var perLayer = []MetricDef{
	{Name: "edgeset.train_extract_s", Unit: "s", Better: "lower", Moves: on("setup_s", allWorkloads...)},
	{Name: "core.train_s", Unit: "s", Better: "lower", Moves: on("setup_s", allWorkloads...)},
	{Name: "core.load_s", Unit: "s", Better: "lower", Moves: on("setup_s", allWorkloads...)},
	{Name: "control.attach_s", Unit: "s", Better: "lower", Moves: on("setup_s", wLive)},

	{Name: "trace.read_us_per_frame", Unit: "us", Better: "lower", Moves: cat(on("frames_per_s", wReplay), on("cpu_ms_per_kframe", wLive))},
	{Name: "trace.decode_us_per_frame", Unit: "us", Better: "lower", Moves: on("frames_per_s", wReplay)},
	{Name: "trace.decode_bytes_per_frame", Unit: "bytes", Better: "lower", Moves: cat(on("bytes_per_frame", allWorkloads...), on("allocs_per_frame", allWorkloads...))},

	{Name: "edgeset.extract_us_per_frame", Unit: "us", Better: "lower", Moves: on("frames_per_s", wReplay)},
	{Name: "edgeset.fail_frac", Unit: "ratio", Better: "lower", Moves: on("correct_frac", allWorkloads...)},

	{Name: "core.detect_us_per_frame", Unit: "us", Better: "lower", Moves: cat(on("frames_per_s", wReplay), on("cpu_ms_per_kframe", wReplay)), NoMove: []string{wFleet}},
	{Name: "core.nearest_us_per_frame", Unit: "us", Better: "lower", Moves: cat(on("frames_per_s", wReplay), on("cpu_ms_per_kframe", wReplay)), NoMove: []string{wFleet}},
	{Name: "core.explain_us_per_frame", Unit: "us", Better: "lower", Moves: on("frames_per_s", wFleet)},

	// The sequencer is one goroutine per session: it caps frames_per_s
	// as workers are added.
	{Name: "ids.sequence_us_per_frame", Unit: "us", Better: "lower", Moves: on("frames_per_s", wReplay, wFleet)},

	{Name: "pipeline.worker_util", Unit: "ratio", Better: "higher", Moves: on("frames_per_s", wReplay, wFleet)},

	{Name: "engine.tally_us_per_frame", Unit: "us", Better: "lower", Moves: sinkTail, NoMove: []string{wReplay}},
	{Name: "obs.drift_us_per_frame", Unit: "us", Better: "lower", Moves: sinkTail, NoMove: []string{wReplay}},
	{Name: "obs.incident_us_per_frame", Unit: "us", Better: "lower", Moves: sinkTail, NoMove: []string{wReplay}},
	{Name: "obs.flight_us_per_frame", Unit: "us", Better: "lower", Moves: sinkTail, NoMove: []string{wReplay}},
	{Name: "obs.flight_bundles", Unit: "count", Better: "lower", Moves: sinkTail, NoMove: []string{wReplay}},
	{Name: "obs.event_us_per_event", Unit: "us", Better: "lower", Moves: sinkTail, NoMove: []string{wReplay}},

	// Measured per frame from source arrival to the sink; batch-fill
	// wait lives here.
	{Name: "engine.verdict_latency_p50_ms", Unit: "ms", Better: "lower", Moves: on("alert_latency_p50_ms", wLive)},
	{Name: "engine.verdict_latency_p99_ms", Unit: "ms", Better: "lower", Moves: on("alert_latency_p99_ms", wLive)},
	// Alert latency minus verdict latency: publish, the hub and the
	// HTTP long-poll.
	{Name: "control.event_delivery_ms_p50", Unit: "ms", Better: "lower", Moves: on("alert_latency_p50_ms", wLive)},
	// Frames due minus frames scored; it rises before the p99 does.
	{Name: "control.backlog_frames_max", Unit: "count", Better: "lower", Moves: on("alert_latency_p99_ms", wLive)},
	// Generator lateness: a health check on the run, not a metric of
	// the program.
	{Name: "gen.late_ms_p99", Unit: "ms", Better: "lower"},

	// CPU per frame of the traced half over the untraced half.
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// unitOf returns a metric's declared unit.
func unitOf(name string) string {
	for _, tab := range [][]MetricDef{endToEnd, perLayer} {
		for _, d := range tab {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
