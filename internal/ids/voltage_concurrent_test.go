package ids_test

import (
	"sync"
	"testing"

	"vprofile/internal/core"
	"vprofile/internal/vehicle"
)

// TestVoltageVerdictConcurrent hammers VoltageVerdict from many
// goroutines over the same Composite — the shape the replay pipeline
// produces — and checks every concurrent verdict is bit-identical to
// its sequential counterpart. Under -race this also proves the pooled
// extraction scratch buffers never cross goroutines while in use.
func TestVoltageVerdictConcurrent(t *testing.T) {
	v := vehicle.NewVehicleB()
	c := newComposite(t, v, 400)

	var msgs []vehicle.Message
	err := v.Stream(vehicle.GenConfig{NumMessages: 600, Seed: 17}, func(m vehicle.Message) error {
		msgs = append(msgs, m)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	want := make([]core.Detection, len(msgs))
	wantErr := make([]error, len(msgs))
	for i, m := range msgs {
		want[i], wantErr[i] = c.VoltageVerdict(m.Frame, m.Trace, nil)
	}

	const workers = 8
	got := make([]core.Detection, len(msgs))
	gotErr := make([]error, len(msgs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(msgs); i += workers {
				got[i], gotErr[i] = c.VoltageVerdict(msgs[i].Frame, msgs[i].Trace, nil)
			}
		}(w)
	}
	wg.Wait()

	for i := range msgs {
		if (wantErr[i] == nil) != (gotErr[i] == nil) {
			t.Fatalf("msg %d: sequential err %v, concurrent err %v", i, wantErr[i], gotErr[i])
		}
		if got[i] != want[i] {
			t.Fatalf("msg %d: concurrent verdict %+v, sequential %+v", i, got[i], want[i])
		}
	}
}
