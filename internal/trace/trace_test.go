package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"vprofile/internal/analog"
	"vprofile/internal/edgeset"
	"vprofile/internal/vehicle"
)

func sampleHeader() Header {
	return Header{
		Vehicle: "test-vehicle",
		BitRate: 250e3,
		ADC:     analog.ADC{SampleRate: 10e6, Bits: 12, MinVolts: -5, MaxVolts: 5},
	}
}

func TestRoundTripEmptyCapture(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	h, recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("%d records in empty capture", len(recs))
	}
	if h != sampleHeader() {
		t.Fatalf("header mismatch: %+v", h)
	}
}

func TestRoundTripRecords(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	want := []*Record{
		{ECUIndex: 0, TimeSec: 0.25, FrameID: 0x0CF00400, Data: []byte{1, 2, 3}, Trace: analog.Trace{100, 200, 300}},
		{ECUIndex: -1, TimeSec: 1.5, FrameID: 0x18FEF117, Data: nil, Trace: analog.Trace{4095, 0}},
		{ECUIndex: 3, TimeSec: 2, FrameID: 0x18FEF121, Data: []byte{9, 8, 7, 6, 5, 4, 3, 2}, Trace: nil},
	}
	for _, r := range want {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ECUIndex != w.ECUIndex || g.TimeSec != w.TimeSec || g.FrameID != w.FrameID {
			t.Fatalf("record %d header mismatch: %+v vs %+v", i, g, w)
		}
		if string(g.Data) != string(w.Data) {
			t.Fatalf("record %d data mismatch", i)
		}
		if len(g.Trace) != len(w.Trace) {
			t.Fatalf("record %d trace length %d vs %d", i, len(g.Trace), len(w.Trace))
		}
		for j := range w.Trace {
			if g.Trace[j] != w.Trace[j] {
				t.Fatalf("record %d sample %d: %v vs %v", i, j, g.Trace[j], w.Trace[j])
			}
		}
	}
}

func TestWriteRejectsOversizeData(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&Record{Data: make([]byte, 9)}); err == nil {
		t.Fatal("9-byte payload accepted")
	}
}

// TestWriteDoesNotAllocate pins the writer's per-sample encoding to
// the Writer's own scratch: writing a 5k-sample record must not touch
// the heap (a per-field temporary escapes through bufio.Writer.Write).
func TestWriteDoesNotAllocate(t *testing.T) {
	w, err := NewWriter(io.Discard, sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	rec := &Record{ECUIndex: 3, TimeSec: 1.5, FrameID: 0x0CF00400, Data: []byte{1, 2, 3}, Trace: make(analog.Trace, 5000)}
	for i := range rec.Trace {
		rec.Trace[i] = float64(i % 4096)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Write of a 5000-sample record made %v allocations, want 0", n)
	}
}

func TestWriteRejectsUnencodableTraces(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	// A record the writer must accept, written before and after each
	// rejection to prove rejected records leave the stream intact.
	good := &Record{FrameID: 0x0CF00400, Data: []byte{1}, Trace: analog.Trace{0, 65535, 1234}}
	if err := w.Write(good); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		rec  *Record
		want error
	}{
		// uint16(c) used to wrap these silently: -1 became 65535 and
		// 65536 became 0, so the file read back with corrupt samples.
		{"negative code", &Record{Trace: analog.Trace{100, -1}}, ErrCodeRange},
		{"oversized code", &Record{Trace: analog.Trace{65536}}, ErrCodeRange},
		{"huge code", &Record{Trace: analog.Trace{1e30}}, ErrCodeRange},
		{"nan code", &Record{Trace: analog.Trace{math.NaN()}}, ErrCodeRange},
		{"oversize trace", &Record{Trace: make(analog.Trace, maxSaneSamples+1)}, ErrTraceLength},
	}
	for _, tc := range cases {
		if err := w.Write(tc.rec); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	if err := w.Write(good); err != nil {
		t.Fatalf("writer unusable after rejection: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Round trip: only the two good records exist, byte-exact.
	_, recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records survived, want 2", len(recs))
	}
	for i, rec := range recs {
		if len(rec.Trace) != len(good.Trace) {
			t.Fatalf("record %d trace length %d", i, len(rec.Trace))
		}
		for j := range good.Trace {
			if rec.Trace[j] != good.Trace[j] {
				t.Fatalf("record %d sample %d: %v vs %v", i, j, rec.Trace[j], good.Trace[j])
			}
		}
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("XXXX????"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestReaderRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 0xFF // corrupt the version field
	if _, err := NewReader(bytes.NewReader(b)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v", err)
	}
}

func TestReaderDetectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&Record{Trace: make(analog.Trace, 100)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	rd, err := NewReader(bytes.NewReader(full[:len(full)-10]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteCaptureRoundTripsVehicleTraffic(t *testing.T) {
	v := vehicle.NewVehicleB()
	var buf bytes.Buffer
	if err := WriteCapture(&buf, v, vehicle.GenConfig{NumMessages: 40, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := rd.Header()
	if h.Vehicle != v.Name || h.ADC.Bits != v.ADC.Bits {
		t.Fatalf("header %+v", h)
	}
	// The replayed traces must preprocess exactly like live traffic.
	cfg := v.ExtractionConfig()
	n := 0
	for {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := edgeset.Extract(rec.Trace, cfg)
		if err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		if uint32(res.SA) != rec.FrameID&0xFF {
			t.Fatalf("record %d: SA %#x vs frame %#x", n, res.SA, rec.FrameID&0xFF)
		}
		n++
	}
	if n != 40 {
		t.Fatalf("%d records", n)
	}
}
