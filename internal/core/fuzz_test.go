package core

import (
	"bytes"
	"testing"

	"vprofile/internal/canbus"
	"vprofile/internal/linalg"
)

// FuzzLoad throws arbitrary bytes at the model loader, the boundary
// every model file crosses — including the ones a daemon attach or a
// hot swap reads. Load may reject its input however it likes but must
// never panic, and any model it accepts must score: Detect and
// DetectExplain of a zero edge set agree for every SA in the lookup
// table and for one outside it. The committed corpus under
// testdata/fuzz/FuzzLoad holds a valid Euclidean and a valid
// Mahalanobis model and each payload TestLoadRejectsHostileModels
// rejects.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			if m != nil {
				t.Fatalf("Load returned a model with error %v", err)
			}
			return
		}
		set := make(linalg.Vector, m.Dim)
		sas := make([]canbus.SourceAddress, 0, len(m.SALUT)+1)
		for sa := range m.SALUT {
			sas = append(sas, sa)
		}
		for sa := 0; sa < 256; sa++ {
			if _, ok := m.SALUT[canbus.SourceAddress(sa)]; !ok {
				sas = append(sas, canbus.SourceAddress(sa))
				break
			}
		}
		for _, sa := range sas {
			det := m.Detect(sa, set)
			detEx, ex := m.DetectExplain(sa, set)
			if det != detEx {
				t.Fatalf("SA %#02x: Detect %+v, DetectExplain %+v", uint8(sa), det, detEx)
			}
			if _, known := m.SALUT[sa]; known && len(ex.Distances) != len(m.Clusters) {
				t.Fatalf("SA %#02x: %d distances for %d clusters", uint8(sa), len(ex.Distances), len(m.Clusters))
			}
		}
	})
}
