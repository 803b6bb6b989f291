package ids_test

import (
	"math/rand"
	"testing"

	"vprofile/internal/analog"
	"vprofile/internal/canbus"
	"vprofile/internal/core"
	"vprofile/internal/experiments"
	"vprofile/internal/ids"
	"vprofile/internal/vehicle"
)

// buildModel trains a Mahalanobis model on Vehicle B traffic.
func buildModel(t *testing.T, v *vehicle.Vehicle) *core.Model {
	t.Helper()
	train, err := experiments.CollectSamples(v, 1500, 7, nil, v.ExtractionConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Train(experiments.CoreSamples(train), core.TrainConfig{
		Metric: core.Mahalanobis, SAMap: v.SAMap(),
	})
	if err != nil {
		t.Fatal(err)
	}
	val, err := experiments.CollectSamples(v, 800, 8, nil, v.ExtractionConfig())
	if err != nil {
		t.Fatal(err)
	}
	margin, _ := experiments.OptimizeMargin(experiments.FalsePositiveRecords(m, val), experiments.MaxAccuracy)
	m.Margin = margin * 1.5
	return m
}

// frameTrace renders one full frame (with EOF and trailing idle) from
// ECU ecu's hardware under source address sa.
func frameTrace(t *testing.T, v *vehicle.Vehicle, ecu int, sa canbus.SourceAddress, seed int64) analog.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := analog.SynthConfig{ADC: v.ADC, BitRate: v.BitRate, LeadIdleBits: 4}
	e := v.ECUs[ecu]
	spec := e.Messages[0]
	id := spec.ID
	id.SA = sa
	data := make([]byte, spec.DataLen)
	rng.Read(data)
	frame, err := canbus.NewJ1939Frame(id, data)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := analog.SynthesizeFrame(e.Transceiver, frame, cfg, e.Transceiver.NominalEnvironment(), rng)
	if err != nil {
		t.Fatal(err)
	}
	idle := make(analog.Trace, 15*int(v.ADC.SamplesPerBit(v.BitRate)))
	recCode := v.ADC.VoltsToCode(0.012)
	for i := range idle {
		idle[i] = recCode
	}
	return append(tr, idle...)
}

func newComposite(t *testing.T, v *vehicle.Vehicle, warmup int) *ids.Composite {
	t.Helper()
	m := buildModel(t, v)
	c, err := ids.NewComposite(m, ids.CompositeConfig{Extraction: v.ExtractionConfig(), Warmup: warmup})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompositeValidation(t *testing.T) {
	v := vehicle.NewVehicleB()
	if _, err := ids.NewComposite(nil, ids.CompositeConfig{Extraction: v.ExtractionConfig()}); err == nil {
		t.Fatal("nil model accepted")
	}
	bad := v.ExtractionConfig()
	bad.BitWidth = 0
	m := buildModel(t, v)
	if _, err := ids.NewComposite(m, ids.CompositeConfig{Extraction: bad}); err == nil {
		t.Fatal("bad extraction accepted")
	}
}

func TestCompositeCleanTraffic(t *testing.T) {
	v := vehicle.NewVehicleB()
	c := newComposite(t, v, 400)
	anomalies := 0
	transfers := 0
	err := v.Stream(vehicle.GenConfig{NumMessages: 1400, Seed: 71, DiagnosticTraffic: true}, func(m vehicle.Message) error {
		r := c.Process(m.Frame, m.Trace, m.TimeSec)
		if r.Anomalous() {
			anomalies++
		}
		if r.Transfer != nil {
			transfers++
			if r.Transfer.PGN != canbus.PGNDM1 {
				t.Fatalf("transfer PGN %#x", uint32(r.Transfer.PGN))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if anomalies > 14 { // 1% of clean traffic
		t.Fatalf("%d anomalies on clean traffic", anomalies)
	}
	if transfers == 0 {
		t.Fatal("no diagnostic transfers completed")
	}
	if silent := c.SilentStreams(); len(silent) != 0 {
		t.Fatalf("clean run has %d silent streams", silent)
	}
}

func TestCompositeCatchesHijackAndFlood(t *testing.T) {
	v := vehicle.NewVehicleB()
	c := newComposite(t, v, 400)
	// Warm up with clean traffic.
	err := v.Stream(vehicle.GenConfig{NumMessages: 800, Seed: 72}, func(m vehicle.Message) error {
		c.Process(m.Frame, m.Trace, m.TimeSec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hijack: ECU 7's hardware under ECU 2's address (continuing the
	// timeline after the warm-up capture).
	tr := frameTrace(t, v, 7, v.ECUs[2].SAs()[0], 73)
	fr, err := canbus.NewJ1939Frame(canbus.J1939ID{Priority: 6, PGN: canbus.PGNBrakes, SA: v.ECUs[2].SAs()[0]}, make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	r := c.Process(fr, tr, 100.0)
	if !r.Anomalous() || !r.Voltage.Anomaly {
		t.Fatalf("hijack not flagged: %+v", r.Voltage)
	}
}

func TestCompositeSilentStreamsAfterSuspension(t *testing.T) {
	v := vehicle.NewVehicleB()
	c := newComposite(t, v, 400)
	var lastVictimID uint32
	err := v.Stream(vehicle.GenConfig{NumMessages: 900, Seed: 74}, func(m vehicle.Message) error {
		if m.ECUIndex == 0 {
			lastVictimID = m.Frame.ID
		}
		c.Process(m.Frame, m.Trace, m.TimeSec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Continue the capture with ECU 0 suspended.
	err = v.Stream(vehicle.GenConfig{NumMessages: 900, Seed: 75}, func(m vehicle.Message) error {
		if m.ECUIndex == 0 {
			return nil
		}
		c.Process(m.Frame, m.Trace, m.TimeSec+10)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	silent := c.SilentStreams()
	if len(silent) == 0 {
		t.Fatal("suspension left no silent streams")
	}
	found := false
	for _, id := range silent {
		if id == lastVictimID {
			found = true
		}
	}
	if !found {
		t.Fatalf("victim id %#x not among silent streams %v", lastVictimID, silent)
	}
}
