// Hijack detection with the composite IDS: normal traffic interleaved
// with frames from a compromised body controller that forges the
// engine ECU's source address (the Miller-Valasek threat the paper's
// introduction motivates). The IDS fingerprints every frame's
// digitized trace and names the true origin of each attack.
//
//	go run ./examples/hijack
package main

import (
	"fmt"
	"log"
	"math/rand"

	"vprofile/internal/analog"
	"vprofile/internal/canbus"
	"vprofile/internal/core"
	"vprofile/internal/edgeset"
	"vprofile/internal/ids"
	"vprofile/internal/vehicle"
)

func main() {
	v := vehicle.NewVehicleA()
	cfg := v.ExtractionConfig()

	// Train on clean traffic.
	var training []core.Sample
	err := v.Stream(vehicle.GenConfig{NumMessages: 2500, Seed: 10}, func(m vehicle.Message) error {
		res, err := edgeset.Extract(m.Trace, cfg)
		if err != nil {
			return err
		}
		training = append(training, core.Sample{SA: res.SA, Set: res.Set})
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	model, err := core.Train(training, core.TrainConfig{Metric: core.Mahalanobis, SAMap: v.SAMap(), Margin: 40})
	if err != nil {
		log.Fatal(err)
	}

	mon, err := ids.NewComposite(model, ids.CompositeConfig{Extraction: cfg})
	if err != nil {
		log.Fatal(err)
	}

	// A live bus: mostly legitimate frames, but every sixth frame the
	// body controller (ECU 3) transmits under the engine ECU's SA 0x00
	// with forged payloads. Each frame reaches the IDS as its own
	// digitized trace, the way a capture record carries it.
	rng := rand.New(rand.NewSource(11))
	synth := analog.SynthConfig{ADC: v.ADC, BitRate: v.BitRate, LeadIdleBits: 4}
	const frames = 30
	attacks, caught := 0, 0
	for i := 0; i < frames; i++ {
		ecu := v.ECUs[i%len(v.ECUs)]
		id := ecu.Messages[0].ID
		if i%6 == 5 {
			ecu = v.ECUs[3] // the compromised node
			id = canbus.J1939ID{Priority: 3, PGN: canbus.PGNTorqueSpeedControl, SA: canbus.SAEngine}
			attacks++
		}
		data := make([]byte, 8)
		rng.Read(data)
		frame, err := canbus.NewJ1939Frame(id, data)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := analog.SynthesizeFrame(ecu.Transceiver, frame, synth, ecu.Transceiver.NominalEnvironment(), rng)
		if err != nil {
			log.Fatal(err)
		}
		r := mon.Process(frame, tr, float64(i)*0.01)
		if !r.Anomalous() {
			continue
		}
		caught++
		origin := "unknown"
		if r.Voltage.Predict >= 0 {
			c, err := model.Cluster(r.Voltage.Predict)
			if err == nil {
				origin = fmt.Sprintf("cluster %d (SAs %v)", c.ID, c.SAs)
			}
		}
		fmt.Printf("ALARM at frame %d: SA %#02x, reason %s, true origin %s\n",
			i, uint8(frame.SA()), r.Voltage.Reason, origin)
	}
	fmt.Printf("\nprocessed %d frames, %d injected attacks, %d alarms\n", frames, attacks, caught)
	if caught == attacks {
		fmt.Println("every hijacked frame was identified — and attributed to the compromised ECU")
	}
}
