package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv(genEnv) != "" {
		genMain(os.Args[1:])
	}
	os.Exit(m.Run())
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the metric
// tables the benchmark prints from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		got  []metric
		want []MetricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the table %d", len(tc.got), len(tc.want))
		}
		for i, d := range tc.want {
			if g := tc.got[i]; g != (metric{d.Name, d.Unit, d.Better}) {
				t.Errorf("BENCHMARK.json metric %d = %+v, table has %+v", i, g, d)
			}
		}
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
}

// TestWorkloadsAtMinimumSize runs every workload, untraced and traced,
// at minimum size and checks that every metric is printed with its
// unit and that every verdict matched the reference.
func TestWorkloadsAtMinimumSize(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []string{wReplay, wFleet, wLive} {
		for _, traced := range []bool{false, true} {
			name := w
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, _, err := runWorkload(t.TempDir(), runOptions{
					workload: w, seed: 3, seconds: 1, trace: traced, size: 0,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					got, ok := res.Metrics[d.Name]
					if !ok || got.Unit != d.Unit || got.Unit == "" {
						t.Errorf("metric %s printed as %+v (present %v), want unit %q", d.Name, got, ok, d.Unit)
					}
				}
				if !traced {
					if cf := res.Metrics["correct_frac"].Value; cf != 1 {
						t.Errorf("correct_frac = %v, want 1", cf)
					}
					for _, d := range endToEnd {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
				}
			})
		}
	}
}

// TestLayerMapNamesKnownMetrics keeps the layer → end-to-end map
// pointing at metrics and workloads that exist.
func TestLayerMapNamesKnownMetrics(t *testing.T) {
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.Name] = true
	}
	for _, d := range perLayer {
		for _, mv := range d.Moves {
			metric, w, ok := strings.Cut(mv, "@")
			if _, known := workloads[w]; !ok || !e2e[metric] || !known {
				t.Errorf("%s: move %q names an unknown metric or workload", d.Name, mv)
			}
		}
		for _, w := range d.NoMove {
			if _, known := workloads[w]; !known {
				t.Errorf("%s: no-move workload %q is unknown", d.Name, w)
			}
		}
	}
}
