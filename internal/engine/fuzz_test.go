package engine_test

import (
	"bytes"
	"compress/flate"
	"context"
	"testing"

	"deepheal/internal/core"
	"deepheal/internal/engine"
)

// FuzzDecodeSystemSnapshot feeds arbitrary bytes to the snapshot decoder.
// It must never panic, and whatever it accepts must re-encode to a form
// that decodes to the same snapshot and re-encodes to the same bytes.
func FuzzDecodeSystemSnapshot(f *testing.F) {
	encode := func(step int, comps map[string][]byte) []byte {
		s := engine.NewSystemSnapshot(step)
		for name, data := range comps {
			if err := s.AddBytes(name, data); err != nil {
				f.Fatal(err)
			}
		}
		enc, err := s.Encode()
		if err != nil {
			f.Fatal(err)
		}
		return enc
	}
	roundTrip := encode(42, map[string][]byte{
		"bti/core/0": bytes.Repeat([]byte{1, 2, 3, 4}, 64),
		"bti/core/1": {},
		"core/sim":   []byte("sim payload here"),
	})
	f.Add(roundTrip)
	f.Add(roundTrip[:len(roundTrip)-3])
	f.Add(encode(7, map[string][]byte{"z": []byte("z-payload"), "a": []byte("a-payload")}))
	f.Add([]byte{0x00, 'D', 'H', 'C', 0xff, 0xff})

	// 3x3 is the smallest die that builds (a 2x2 PDN mesh is all pads).
	cfg := core.ConfigForGrid(3, 3)
	cfg.Steps = 40
	sim, err := core.NewSimulator(cfg, core.DefaultDeepHealing(), core.WithLeanSeries())
	if err != nil {
		f.Fatal(err)
	}
	if err := sim.RunSteps(context.Background(), 10); err != nil {
		f.Fatal(err)
	}
	chip, err := sim.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(chip)
	f.Add(chip[:len(chip)/2])

	// The same chip framed as version 2 in the DEFLATE container older
	// builds wrote, which the decoder must refuse.
	body := append([]byte{2}, chip[5:]...) // magic, then version 3 as one byte
	var v2 bytes.Buffer
	v2.Write(chip[:4])
	zw, err := flate.NewWriter(&v2, flate.BestSpeed)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := zw.Write(body); err != nil {
		f.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := engine.DecodeSystemSnapshot(data)
		if err != nil {
			return
		}
		enc, err := snap.Encode()
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		again, err := engine.DecodeSystemSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if again.Version != snap.Version || again.Step != snap.Step || len(again.Components) != len(snap.Components) {
			t.Fatalf("round trip changed the header: %d/%d/%d components, want %d/%d/%d",
				again.Version, again.Step, len(again.Components), snap.Version, snap.Step, len(snap.Components))
		}
		for name, want := range snap.Components {
			if got, err := again.Bytes(name); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("round trip changed component %q", name)
			}
		}
		enc2, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("encoding is not a fixed point")
		}
	})
}
