package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// longJournal rewrites an RO sensor payload so its noise stream claims
// 2^62 normal draws: the sensor framing (magic, four config floats, the
// length-prefixed stream) and the stream's seed are kept, and the journal
// becomes one run (kind 1 is a normal draw, argument 0).
func longJournal(data []byte) []byte {
	const head = 1 + 4*8
	rngLen, n := binary.Uvarint(data[head:])
	rng := data[head+n : head+n+int(rngLen)]
	_, seedLen := binary.Varint(rng[1:])
	stream := append([]byte(nil), rng[:1+seedLen]...)
	stream = binary.AppendUvarint(stream, 1)
	stream = append(stream, 1)
	stream = binary.AppendVarint(stream, 0)
	stream = binary.AppendUvarint(stream, 1<<62)
	out := append([]byte(nil), data[:head]...)
	out = binary.AppendUvarint(out, uint64(len(stream)))
	return append(out, stream...)
}

// TestRestoreBoundsSensorReplay checks a checkpoint whose sensor noise
// journal claims far more draws than the resume step allows is refused
// promptly: the journal is checked against the step before any replay, and
// a replay of 2^62 draws would never finish.
func TestRestoreBoundsSensorReplay(t *testing.T) {
	m := fuzzModel(t)
	blob := maturedSnapshot(t, m)
	for _, name := range []string{snapROSensor(0), snapROSensor(8), snapEMSensor} {
		crafted := withComponent(t, blob, name, longJournal)
		sim := leanSim(t, m)
		done := make(chan error, 1)
		start := time.Now()
		go func() { done <- sim.Restore(crafted) }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: journal of 2^62 draws restored at step 10", name)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("%s: refusal took %v", name, d)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: restore still replaying after 5s", name)
		}
	}

	// The bound is exact: a sensor read once at build time and once per
	// step restores at every step, including the last (which skips its
	// read), and one read more than that is refused.
	sim := leanSim(t, m)
	ctx := context.Background()
	for sim.Step() < m.cfg.Steps {
		blob, err := sim.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		twin := leanSim(t, m)
		if err := twin.Restore(blob); err != nil {
			t.Fatalf("step %d: %v", sim.Step(), err)
		}
		if err := sim.RunSteps(ctx, 13); err != nil {
			t.Fatal(err)
		}
	}
	over := tamperSimState(t, maturedSnapshot(t, m), func(s *simState) { s.Step, s.Series[0].Step = 1, 0 })
	early := leanSim(t, m)
	if err := early.Restore(over); err == nil || !strings.Contains(err.Error(), "more than 2 draws") {
		t.Errorf("sensor journal of 11 reads restored at step 1: err = %v", err)
	}
}

// sampleSimState returns a state exercising every field, with a full or
// lean series, for a 2-core chip.
func sampleSimState(lean bool) simState {
	st := simState{
		Step: 3, Rows: 1, Cols: 2, Steps: 40, Segments: 5,
		PolicyName:    "deep-healing",
		PolicyState:   (&DeepHealing{remaining: []int{0, 2}}).SnapshotState(),
		Lean:          lean,
		LastTemps:     []float64{61.25, -0.0},
		SensedShift:   []float64{0.0123, 1e-300},
		SensedEMDelta: -0.004,
		PrevModes:     []CoreMode{ModeRecover, ModeGated},
		DemandedSum:   2.5,
		DeliveredSum:  2.25,
		RecoverySteps: 4,
		Guardband:     math.Inf(1),
		EMNucleated:   true,
		EMFailedStep:  -1,
	}
	for i := 0; i < 3; i++ {
		st.Series = append(st.Series, StepStats{
			Step: i, MaxShiftV: 0.01 * float64(i), MeanShiftV: 0.005, WorstDelayNorm: math.Inf(1),
			EMMaxProgress: 0.3, EMDeltaOhm: 1e-9, MaxTempC: 70.5, Recovering: i, EMReverse: i == 1,
			DeliveredFrac: 0.875,
		})
	}
	if lean {
		st.Series = st.Series[2:]
	}
	return st
}

// TestSimStateCodec checks the core/sim payload round-trips bit-exactly in
// lean and full series modes with and without policy state and previous
// modes, and refuses every malformed payload.
func TestSimStateCodec(t *testing.T) {
	for _, lean := range []bool{false, true} {
		for _, withState := range []bool{false, true} {
			st := sampleSimState(lean)
			if !withState {
				st.PolicyState, st.PrevModes = nil, nil
			}
			enc := st.encode()
			got, err := decodeSimState(enc, 2)
			if err != nil {
				t.Fatalf("lean=%v state=%v: %v", lean, withState, err)
			}
			if !reflect.DeepEqual(got, st) || !bytes.Equal(got.encode(), enc) {
				t.Errorf("lean=%v state=%v: round trip gave\n%+v\nwant\n%+v", lean, withState, got, st)
			}
			if (got.PolicyState == nil) != !withState || (got.PrevModes == nil) != !withState {
				t.Errorf("lean=%v state=%v: nil-ness of policy state or modes not kept", lean, withState)
			}
		}
	}

	sample := sampleSimState(false)
	good := sample.encode()
	mutate := func(mut func(*simState)) []byte {
		st := sampleSimState(false)
		mut(&st)
		return st.encode()
	}
	// The series length prefix sits right after the two mode bytes; the
	// policy state's prefix right after the policy name.
	seriesAt := bytes.Index(good, []byte{2, byte(ModeRecover), byte(ModeGated)}) + 3
	policyAt := bytes.Index(good, []byte("deep-healing")) + len("deep-healing")
	bad := map[string][]byte{
		"trailing byte":   append(append([]byte(nil), good...), 0),
		"wrong magic":     append([]byte{'D'}, good[1:]...),
		"3 temperatures":  mutate(func(s *simState) { s.LastTemps = append(s.LastTemps, 50) }),
		"no shifts":       mutate(func(s *simState) { s.SensedShift = nil }),
		"1 mode":          mutate(func(s *simState) { s.PrevModes = s.PrevModes[:1] }),
		"mode 0":          mutate(func(s *simState) { s.PrevModes[0] = 0 }),
		"NaN temperature": mutate(func(s *simState) { s.LastTemps[1] = math.NaN() }),
		"Inf shift":       mutate(func(s *simState) { s.SensedShift[0] = math.Inf(1) }),
		"NaN EM delta":    mutate(func(s *simState) { s.SensedEMDelta = math.NaN() }),
		"Inf series temp": mutate(func(s *simState) { s.Series[1].MaxTempC = math.Inf(1) }),
		"NaN delay":       mutate(func(s *simState) { s.Series[0].WorstDelayNorm = math.NaN() }),
		"-Inf guardband":  mutate(func(s *simState) { s.Guardband = math.Inf(-1) }),
		"NaN sum":         mutate(func(s *simState) { s.DeliveredSum = math.NaN() }),
		"EM step -2":      mutate(func(s *simState) { s.EMFailedStep = -2 }),
		"huge series":     append(append([]byte(nil), good[:seriesAt]...), binary.AppendUvarint(nil, 1<<60)...),
		"huge state":      append(append([]byte(nil), good[:policyAt]...), binary.AppendUvarint(nil, 1<<60)...),
		"flag byte 2": func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-2] = 2 // EMNucleated, before the one-byte EM failure step
			return b
		}(),
	}
	for n := 0; n < len(good); n++ {
		bad[fmt.Sprintf("cut to %d bytes", n)] = good[:n]
	}
	for name, data := range bad {
		if _, err := decodeSimState(data, 2); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// TestDeepHealingStateCodec checks the countdowns round-trip, that no
// countdowns restore as nil (the next Plan sizes them), and that malformed
// payloads are refused without touching the policy.
func TestDeepHealingStateCodec(t *testing.T) {
	for _, remaining := range [][]int{nil, {}, {0, 2, 0, 1}, {-1, 1 << 40}} {
		src := &DeepHealing{remaining: remaining}
		dst := &DeepHealing{remaining: []int{7}}
		if err := dst.RestoreState(src.SnapshotState()); err != nil {
			t.Fatal(err)
		}
		want := remaining
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(dst.remaining, want) {
			t.Errorf("countdowns %#v restored as %#v", remaining, dst.remaining)
		}
	}

	good := (&DeepHealing{remaining: []int{3, 0, 1}}).SnapshotState()
	bad := map[string][]byte{
		"trailing byte": append(append([]byte(nil), good...), 0),
		"wrong magic":   append([]byte{'C'}, good[1:]...),
		"huge count":    append([]byte{deepHealingMagic}, binary.AppendUvarint(nil, 1<<60)...),
	}
	for n := 0; n < len(good); n++ {
		bad[fmt.Sprintf("cut to %d bytes", n)] = good[:n]
	}
	for name, data := range bad {
		p := &DeepHealing{remaining: []int{7}}
		if err := p.RestoreState(data); err == nil {
			t.Errorf("%s: restored", name)
		}
		if !reflect.DeepEqual(p.remaining, []int{7}) {
			t.Errorf("%s: rejected payload changed the countdowns to %v", name, p.remaining)
		}
	}
}
