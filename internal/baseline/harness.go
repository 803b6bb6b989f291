package baseline

import (
	"fmt"
	"math/rand"
	"slices"

	"vprofile/internal/analog"
	"vprofile/internal/canbus"
	"vprofile/internal/core"
	"vprofile/internal/edgeset"
	"vprofile/internal/stats"
	"vprofile/internal/vehicle"
)

// VProfile adapts the paper's own detector to the Classifier interface
// so the shoot-out compares it directly against the related work.
type VProfile struct {
	Extraction edgeset.Config
	Metric     core.Metric
	Margin     float64

	model *core.Model
}

// Name implements Classifier.
func (v *VProfile) Name() string { return "vProfile-" + v.Metric.String() }

// Train implements Classifier.
func (v *VProfile) Train(samples []TraceSample, saMap map[canbus.SourceAddress]int) error {
	var cs []core.Sample
	for _, smp := range samples {
		res, err := edgeset.Extract(smp.Trace, v.Extraction)
		if err != nil {
			return err
		}
		cs = append(cs, core.Sample{SA: res.SA, Set: res.Set})
	}
	m, err := core.Train(cs, core.TrainConfig{Metric: v.Metric, SAMap: saMap, Margin: v.Margin})
	if err != nil {
		return err
	}
	v.model = m
	return nil
}

// Verify implements Classifier.
func (v *VProfile) Verify(tr analog.Trace, claimed canbus.SourceAddress) (bool, int, error) {
	if v.model == nil {
		return false, -1, fmt.Errorf("baseline: vProfile not trained")
	}
	res, err := edgeset.Extract(tr, v.Extraction)
	if err != nil {
		return false, -1, err
	}
	d := v.model.Detect(claimed, res.Set)
	return !d.Anomaly, int(d.Predict), nil
}

// ShootoutRow is one classifier's scores in a comparison run.
type ShootoutRow struct {
	Name    string
	FP      stats.ConfusionMatrix // unmodified traffic
	Hijack  stats.ConfusionMatrix // 20 % forged source addresses
	Foreign stats.ConfusionMatrix // foreign-device injections
}

// Shootout trains every classifier on the same capture and evaluates
// the false positive and hijack tests on a shared test capture — the
// cross-method comparison the related-work section motivates.
func Shootout(v *vehicle.Vehicle, classifiers []Classifier, nTrain, nTest int, seed int64) ([]ShootoutRow, error) {
	saMap := v.SAMap()
	train, err := collect(v, nTrain, seed)
	if err != nil {
		return nil, err
	}
	test, err := collect(v, nTest, seed+1)
	if err != nil {
		return nil, err
	}

	// Pre-compute the hijack relabelling once so every classifier sees
	// the identical attack stream.
	rng := rand.New(rand.NewSource(seed + 2))
	forged := make([]canbus.SourceAddress, len(test))
	isAttack := make([]bool, len(test))
	allSAs := make([]canbus.SourceAddress, 0, len(saMap))
	for sa := range saMap {
		allSAs = append(allSAs, sa)
	}
	slices.Sort(allSAs) // map order would change the stream between runs
	for i := range test {
		forged[i] = test[i].SA
		if rng.Float64() < 0.20 {
			own := saMap[test[i].SA]
			var cands []canbus.SourceAddress
			for _, sa := range allSAs {
				if saMap[sa] != own {
					cands = append(cands, sa)
				}
			}
			if len(cands) > 0 {
				forged[i] = cands[rng.Intn(len(cands))]
				isAttack[i] = true
			}
		}
	}

	// Foreign test stream: a device imitating ECU 0, injected among
	// clean traffic (shared across classifiers).
	foreign, err := foreignStream(v, nTest/4, seed+3)
	if err != nil {
		return nil, err
	}

	var rows []ShootoutRow
	for _, c := range classifiers {
		if err := c.Train(train, saMap); err != nil {
			return nil, fmt.Errorf("baseline: training %s: %w", c.Name(), err)
		}
		row := ShootoutRow{Name: c.Name()}
		for i := range test {
			ok, _, err := c.Verify(test[i].Trace, test[i].SA)
			if err != nil {
				return nil, fmt.Errorf("baseline: %s verify: %w", c.Name(), err)
			}
			row.FP.Add(false, !ok)
			okH, _, err := c.Verify(test[i].Trace, forged[i])
			if err != nil {
				return nil, err
			}
			row.Hijack.Add(isAttack[i], !okH)
		}
		for _, f := range foreign {
			ok, _, err := c.Verify(f.Trace, f.SA)
			if err != nil {
				return nil, err
			}
			row.Foreign.Add(true, !ok)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// foreignStream renders frames from a device imitating ECU 0's
// identity with attacker-grade hardware: the best-effort clone plus
// ordinary COTS tolerance, matching the attack package's scenario.
func foreignStream(v *vehicle.Vehicle, n int, seed int64) ([]TraceSample, error) {
	victim := v.ECUs[0]
	imposter := vehicle.ForeignDevice(victim.Transceiver)
	imposter.VDom += 0.04
	imposter.TauRise *= 1.05
	cap, err := v.GenerateForeign(imposter, victim, vehicle.GenConfig{NumMessages: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	out := make([]TraceSample, 0, n)
	for _, m := range cap.Messages {
		out = append(out, TraceSample{Trace: m.Trace, SA: m.Frame.SA(), ECU: -1})
	}
	return out, nil
}

// collect renders traffic into TraceSamples.
func collect(v *vehicle.Vehicle, n int, seed int64) ([]TraceSample, error) {
	out := make([]TraceSample, 0, n)
	err := v.Stream(vehicle.GenConfig{NumMessages: n, Seed: seed}, func(m vehicle.Message) error {
		out = append(out, TraceSample{Trace: m.Trace, SA: m.Frame.SA(), ECU: m.ECUIndex})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
