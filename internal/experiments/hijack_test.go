package experiments

import (
	"math/rand"
	"slices"
	"testing"

	"vprofile/internal/canbus"
	"vprofile/internal/core"
	"vprofile/internal/linalg"
)

// TestHijackRecordsReproducible requires the hijack stream to be a
// function of the seed alone. Four overlapping ECUs with four SAs each
// make the verdict depend on which SA is forged, so a forging pool
// built in map order yields different records from run to run.
func TestHijackRecordsReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const ecus, sasPerECU, dim = 4, 4, 6
	sample := func(ecu int) LabeledSample {
		set := make(linalg.Vector, dim)
		for i := range set {
			set[i] = 0.8*float64(ecu) + rng.NormFloat64()
		}
		sa := canbus.SourceAddress(0x10*(ecu+1) + rng.Intn(sasPerECU))
		return LabeledSample{Sample: core.Sample{SA: sa, Set: set}, ECU: ecu}
	}
	var train []core.Sample
	saMap := make(map[canbus.SourceAddress]int)
	for ecu := 0; ecu < ecus; ecu++ {
		for sa := 0; sa < sasPerECU; sa++ {
			saMap[canbus.SourceAddress(0x10*(ecu+1)+sa)] = ecu
		}
		for i := 0; i < 200; i++ {
			train = append(train, sample(ecu).Sample)
		}
	}
	model, err := core.Train(train, core.TrainConfig{Metric: core.Mahalanobis, SAMap: saMap})
	if err != nil {
		t.Fatal(err)
	}
	var test []LabeledSample
	for i := 0; i < 400; i++ {
		test = append(test, sample(i%ecus))
	}
	want := HijackRecords(model, test, rand.New(rand.NewSource(9)))
	for run := 1; run < 8; run++ {
		if got := HijackRecords(model, test, rand.New(rand.NewSource(9))); !slices.Equal(got, want) {
			t.Fatalf("run %d: hijack records differ under the same seed", run)
		}
	}
}
