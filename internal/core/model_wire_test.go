package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vprofile/internal/linalg"
)

// encodeWire builds a model file byte-for-byte the way Save does, but
// from an arbitrary wire struct, so tests can craft payloads Save
// would never produce.
func encodeWire(t testing.TB, wire any) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(modelMagic)
	buf.WriteByte(modelVersion)
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadRejectsOutOfRangeLUT(t *testing.T) {
	base := func() modelWire {
		return modelWire{
			Metric: Euclidean,
			Dim:    1,
			SALUT:  map[uint8]int{0x10: 0},
			Clusters: []clusterWire{
				{SAs: []uint8{0x10}, Mean: []float64{1.5}, MaxDist: 0.5, N: 8},
			},
		}
	}

	// Sanity: the well-formed payload loads and detects without issue.
	m, err := Load(bytes.NewReader(encodeWire(t, base())))
	if err != nil {
		t.Fatalf("well-formed payload rejected: %v", err)
	}
	if d := m.Detect(0x10, []float64{1.5}); d.Anomaly {
		t.Fatalf("clean sample flagged: %+v", d)
	}

	cases := []struct {
		name string
		id   int
	}{
		// A negative cluster id used to pass the >= len check and
		// panic later inside Detect via m.Clusters[expID].
		{"negative", -1},
		{"very negative", -1 << 30},
		{"past end", 1},
		{"far past end", 1 << 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wire := base()
			wire.SALUT[0x10] = tc.id
			m, err := Load(bytes.NewReader(encodeWire(t, wire)))
			if err == nil {
				// Before the fix this is where the corrupt model would
				// escape validation; Detect then panicked.
				t.Fatalf("LUT cluster id %d accepted", tc.id)
			}
			if !strings.Contains(err.Error(), "cluster") {
				t.Fatalf("unhelpful error: %v", err)
			}
			if m != nil {
				t.Fatal("corrupt load returned a model")
			}
		})
	}
}

// validWire is a well-formed two-cluster payload at Dim 2.
func validWire(metric Metric) modelWire {
	w := modelWire{
		Metric: metric, Dim: 2, Margin: 1,
		SALUT: map[uint8]int{0x10: 0, 0x11: 1},
		Clusters: []clusterWire{
			{SAs: []uint8{0x10}, Mean: []float64{0, 0}, MaxDist: 2, N: 8},
			{SAs: []uint8{0x11}, Mean: []float64{5, 5}, MaxDist: 2, N: 8},
		},
	}
	if metric == Mahalanobis {
		for i := range w.Clusters {
			w.Clusters[i].Cov = []float64{1, 0.2, 0.2, 1}
		}
	}
	return w
}

// hostileWires are payloads Save never writes. Each one used to panic
// inside Load or at the first Detect, or to load and score silently
// under the wrong metric. Per-cluster defects sit in cluster 1, which
// the error must name.
var hostileWires = []struct {
	name    string
	metric  Metric
	mutate  func(*modelWire)
	want    error
	cluster bool
}{
	{"short cov", Mahalanobis, func(w *modelWire) { w.Clusters[1].Cov = w.Clusters[1].Cov[:3] }, ErrModelFormat, true},
	{"missing cov", Mahalanobis, func(w *modelWire) { w.Clusters[1].Cov = nil }, ErrModelFormat, true},
	{"non-PD cov", Mahalanobis, func(w *modelWire) { w.Clusters[1].Cov = []float64{1, 0, 0, -1} }, ErrSingularCov, true},
	{"NaN cov", Mahalanobis, func(w *modelWire) { w.Clusters[1].Cov[3] = math.NaN() }, ErrSingularCov, true},
	{"short mean", Mahalanobis, func(w *modelWire) { w.Clusters[1].Mean = []float64{5} }, ErrModelFormat, true},
	{"long mean", Euclidean, func(w *modelWire) { w.Clusters[1].Mean = []float64{5, 5, 5} }, ErrModelFormat, true},
	{"euclidean cov", Euclidean, func(w *modelWire) { w.Clusters[1].Cov = []float64{1, 0, 0, 1} }, ErrModelFormat, true},
	{"negative count", Mahalanobis, func(w *modelWire) { w.Clusters[1].N = -1 }, ErrModelFormat, true},
	{"zero dim", Euclidean, func(w *modelWire) { w.Dim = 0 }, ErrModelFormat, false},
	{"negative dim", Mahalanobis, func(w *modelWire) { w.Dim = -3 }, ErrModelFormat, false},
	{"unknown metric", Euclidean, func(w *modelWire) { w.Metric = 7 }, ErrModelFormat, false},
	{"no clusters", Euclidean, func(w *modelWire) { w.Clusters, w.SALUT = nil, nil }, ErrModelFormat, false},
}

func TestLoadRejectsHostileModels(t *testing.T) {
	for _, metric := range []Metric{Euclidean, Mahalanobis} {
		m, err := Load(bytes.NewReader(encodeWire(t, validWire(metric))))
		if err != nil {
			t.Fatalf("%v: well-formed payload rejected: %v", metric, err)
		}
		if d := m.Detect(0x11, linalg.Vector{5, 5}); d.Anomaly {
			t.Fatalf("%v: clean sample flagged: %+v", metric, d)
		}
	}
	for _, tc := range hostileWires {
		t.Run(tc.name, func(t *testing.T) {
			wire := validWire(tc.metric)
			tc.mutate(&wire)
			m, err := Load(bytes.NewReader(encodeWire(t, wire)))
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if tc.cluster && !strings.Contains(err.Error(), "cluster 1") {
				t.Fatalf("error does not name the cluster: %v", err)
			}
			if m != nil {
				t.Fatal("rejected load returned a model")
			}
		})
	}
}

// TestLoadIgnoresLegacyInverse loads testdata/legacy-inverse.vpm, a
// model file written while clusters still carried an inverse
// covariance on the wire. Gob skips the field this build no longer
// declares, so the file must load under the same format version and
// score bit-identically to the same payload without it.
func TestLoadIgnoresLegacyInverse(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy-inverse.vpm"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("InvCov")) {
		t.Fatal("fixture does not carry the legacy inverse-covariance field")
	}
	legacy, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("legacy payload rejected: %v", err)
	}
	var buf bytes.Buffer
	if err := legacy.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("InvCov")) {
		t.Fatal("Save still writes the inverse covariance")
	}
	cur, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		c := legacy.Clusters[trial%len(legacy.Clusters)]
		set := c.Mean.Clone()
		for i := range set {
			set[i] += float64(trial%7) * rng.NormFloat64()
		}
		for _, sa := range c.SAs {
			d1, ex1 := legacy.DetectExplain(sa, set)
			d2, ex2 := cur.DetectExplain(sa, set)
			if d1 != d2 || ex1.Threshold != ex2.Threshold || !slices.Equal(ex1.Distances, ex2.Distances) {
				t.Fatalf("trial %d SA %#02x: legacy load %+v %+v, without the field %+v %+v", trial, uint8(sa), d1, ex1, d2, ex2)
			}
		}
	}
}

// TestLoadScoresIdentically round-trips a model through Save/Load and
// requires bit-identical distances: the covariances serialise exactly
// and factorisation is deterministic, so a deserialised model must
// score exactly like the trained one that was saved.
func TestLoadScoresIdentically(t *testing.T) {
	m, ecus, _ := trainTest(t, Mahalanobis, TrainConfig{Ridge: 1e-6})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		s := ecus[trial%len(ecus)].sample(rng)
		c1, err := m.ClusterForSA(s.SA)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := loaded.ClusterForSA(s.SA)
		if err != nil {
			t.Fatal(err)
		}
		if d1, d2 := m.Distance(c1, s.Set), loaded.Distance(c2, s.Set); d1 != d2 {
			t.Fatalf("trial %d: loaded model scores %v, original %v", trial, d2, d1)
		}
	}
}
