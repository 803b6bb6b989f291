package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"vprofile/internal/canbus"
	"vprofile/internal/core"
	"vprofile/internal/stats"
	"vprofile/internal/vehicle"
)

// TestOutcome is one test's confusion matrix with the margin the
// optimiser chose.
type TestOutcome struct {
	Matrix stats.ConfusionMatrix
	Margin float64
}

// MetricResults reproduces one of Tables 4.1–4.4: the three experiment
// types run on one vehicle under one distance metric.
type MetricResults struct {
	Vehicle string
	Metric  core.Metric

	FalsePositive TestOutcome
	Hijack        TestOutcome
	Foreign       TestOutcome

	// ForeignPair is the closest cluster pair under the metric; the
	// first element is the ECU removed from training and relabelled as
	// the second during the foreign test.
	ForeignPair     [2]core.ClusterID
	ForeignPairDist float64
	// NextPair is the second-closest pair, reported alongside in
	// Section 4.2 ("the next smallest distance is …").
	NextPair     [2]core.ClusterID
	NextPairDist float64
}

// FalsePositiveRecords replays unmodified traffic: every message is
// legitimate, every alarm a false positive.
func FalsePositiveRecords(m *core.Model, test []LabeledSample) []MarginRecord {
	out := make([]MarginRecord, 0, len(test))
	for _, s := range test {
		out = append(out, RecordFor(m, s.Sample, false))
	}
	return out
}

// HijackRecords replays traffic where each message's SA is rewritten,
// with 20 % probability, to an SA belonging to a different cluster —
// the software simulation of every ECU imitating every other
// (Section 4.1).
func HijackRecords(m *core.Model, test []LabeledSample, rng *rand.Rand) []MarginRecord {
	// The forging pool is sorted: map order would make the stream
	// differ between runs with the same seed.
	allSAs := make([]canbus.SourceAddress, 0, len(m.SALUT))
	for sa := range m.SALUT {
		allSAs = append(allSAs, sa)
	}
	slices.Sort(allSAs)
	out := make([]MarginRecord, 0, len(test))
	for _, s := range test {
		sample := s.Sample
		actual := false
		if rng.Float64() < 0.20 {
			if forged, ok := forgeSA(m, sample.SA, allSAs, rng); ok {
				sample.SA = forged
				actual = true
			}
		}
		out = append(out, RecordFor(m, sample, actual))
	}
	return out
}

// forgeSA picks a random SA whose cluster differs from the one the
// original SA belongs to.
func forgeSA(m *core.Model, original canbus.SourceAddress, pool []canbus.SourceAddress, rng *rand.Rand) (canbus.SourceAddress, bool) {
	origCluster, ok := m.SALUT[original]
	if !ok {
		return 0, false
	}
	// Collect candidates once per call; pools are tiny (≤ ~16 SAs).
	var candidates []canbus.SourceAddress
	for _, sa := range pool {
		if m.SALUT[sa] != origCluster {
			candidates = append(candidates, sa)
		}
	}
	if len(candidates) == 0 {
		return 0, false
	}
	return candidates[rng.Intn(len(candidates))], true
}

// ForeignRecords implements the foreign-device imitation test: the
// removed ECU's messages are relabelled with an SA of the imitated
// ECU (actual anomalies); all other traffic replays unmodified.
// The model must have been trained without the removed ECU.
func ForeignRecords(m *core.Model, test []LabeledSample, removedECU int, imitatedSA canbus.SourceAddress) []MarginRecord {
	out := make([]MarginRecord, 0, len(test))
	for _, s := range test {
		sample := s.Sample
		actual := false
		if s.ECU == removedECU {
			sample.SA = imitatedSA
			actual = true
		}
		out = append(out, RecordFor(m, sample, actual))
	}
	return out
}

// RunMetric executes the three test types of Section 4.2 for one
// vehicle and metric and returns the confusion matrices with their
// optimised margins (Tables 4.1–4.4).
func RunMetric(v *vehicle.Vehicle, metric core.Metric, scale Scale) (*MetricResults, error) {
	cfg := v.ExtractionConfig()
	train, err := CollectSamples(v, scale.TrainMessages, scale.Seed, nil, cfg)
	if err != nil {
		return nil, err
	}
	test, err := CollectSamples(v, scale.TestMessages, scale.Seed+1, nil, cfg)
	if err != nil {
		return nil, err
	}
	return RunMetricOnSamples(v, metric, train, test, scale.Seed)
}

// RunMetricOnSamples is RunMetric on pre-extracted samples, allowing
// the sampling-rate sweep to reuse one capture across configurations.
func RunMetricOnSamples(v *vehicle.Vehicle, metric core.Metric, train, test []LabeledSample, seed int64) (*MetricResults, error) {
	trainCfg := core.TrainConfig{Metric: metric, SAMap: v.SAMap()}
	model, err := core.Train(CoreSamples(train), trainCfg)
	if err != nil {
		return nil, err
	}

	res := &MetricResults{Vehicle: v.Name, Metric: metric}

	// False positive test.
	fpRecs := FalsePositiveRecords(model, test)
	res.FalsePositive.Margin, res.FalsePositive.Matrix = OptimizeMargin(fpRecs, MaxAccuracy)

	// Hijack imitation test.
	rng := rand.New(rand.NewSource(seed + 100))
	hjRecs := HijackRecords(model, test, rng)
	res.Hijack.Margin, res.Hijack.Matrix = OptimizeMargin(hjRecs, MaxFScore)

	// Foreign device imitation test: find the two most similar ECUs
	// under this metric, retrain without the first, relabel its
	// traffic as the second.
	a, b, dist, err := model.ClosestClusterPair()
	if err != nil {
		return nil, err
	}
	res.ForeignPair = [2]core.ClusterID{a, b}
	res.ForeignPairDist = dist
	res.NextPair, res.NextPairDist = secondClosestPair(model, a, b)

	removedECU, imitatedSA, err := foreignRoles(v, model, a, b)
	if err != nil {
		return nil, err
	}
	reduced := WithoutECU(train, removedECU)
	foreignModel, err := core.Train(CoreSamples(reduced), core.TrainConfig{Metric: metric, SAMap: v.SAMap()})
	if err != nil {
		return nil, err
	}
	fgRecs := ForeignRecords(foreignModel, test, removedECU, imitatedSA)
	res.Foreign.Margin, res.Foreign.Matrix = OptimizeMargin(fgRecs, MaxFScore)
	return res, nil
}

// foreignRoles maps the closest cluster pair back to vehicle ECUs:
// the lower-indexed ECU is removed ("the former") and imitates the
// other ("the latter"), as in Section 4.2.1.
func foreignRoles(v *vehicle.Vehicle, m *core.Model, a, b core.ClusterID) (removedECU int, imitatedSA canbus.SourceAddress, err error) {
	ca, err := m.Cluster(a)
	if err != nil {
		return 0, 0, err
	}
	cb, err := m.Cluster(b)
	if err != nil {
		return 0, 0, err
	}
	ecuA := v.ECUForSA(ca.SAs[0])
	ecuB := v.ECUForSA(cb.SAs[0])
	if ecuA < 0 || ecuB < 0 {
		return 0, 0, fmt.Errorf("experiments: cluster SAs not on vehicle %s", v.Name)
	}
	if ecuA < ecuB {
		return ecuA, cb.SAs[0], nil
	}
	return ecuB, ca.SAs[0], nil
}

// secondClosestPair returns the closest pair excluding {skipA, skipB}.
func secondClosestPair(m *core.Model, skipA, skipB core.ClusterID) ([2]core.ClusterID, float64) {
	best := -1.0
	var pair [2]core.ClusterID
	n := len(m.Clusters)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := core.ClusterID(i), core.ClusterID(j)
			if (a == skipA && b == skipB) || (a == skipB && b == skipA) {
				continue
			}
			dij, err := m.InterClusterDistance(a, b)
			if err != nil {
				continue
			}
			dji, err := m.InterClusterDistance(b, a)
			if err != nil {
				continue
			}
			d := dij
			if dji < d {
				d = dji
			}
			if best < 0 || d < best {
				best = d
				pair = [2]core.ClusterID{a, b}
			}
		}
	}
	return pair, best
}
