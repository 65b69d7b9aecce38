package em

import (
	"bytes"
	"math"
	"testing"

	"deepheal/internal/units"
)

func TestReducedCompactRoundTrip(t *testing.T) {
	p := DefaultReducedParams()
	r := mustReduced(t, p)
	for i := 0; i < 200; i++ {
		r.Step(jPaper, tempPaper, 3600)
	}
	data := r.Snapshot()
	if len(data) != compactReducedSize {
		t.Fatalf("snapshot frame is %dB, want %dB", len(data), compactReducedSize)
	}

	fresh := mustReduced(t, p)
	if err := fresh.Restore(data); err != nil {
		t.Fatal(err)
	}
	if fresh.ResistanceDelta() != r.ResistanceDelta() || fresh.Broken() != r.Broken() {
		t.Errorf("round-trip mismatch: dR %g vs %g", fresh.ResistanceDelta(), r.ResistanceDelta())
	}
	// Continued evolution must agree bit-for-bit.
	r.Step(jPaper, tempPaper, 3600)
	fresh.Step(jPaper, tempPaper, 3600)
	if fresh.ResistanceDelta() != r.ResistanceDelta() {
		t.Errorf("post-restore evolution diverged: %g vs %g", fresh.ResistanceDelta(), r.ResistanceDelta())
	}
}

func TestReducedCompactRejectsGarbage(t *testing.T) {
	r := mustReduced(t, DefaultReducedParams())
	good := r.Snapshot()
	// corrupt encodes a segment whose state mut has poisoned.
	corrupt := func(mut func(*Reduced)) []byte {
		c := mustReduced(t, DefaultReducedParams())
		mut(c)
		return c.Snapshot()
	}
	for _, junk := range [][]byte{
		nil, {}, good[:len(good)-1], append([]byte{0xff}, good[1:]...),
		corrupt(func(c *Reduced) { c.progress = math.NaN() }),
		corrupt(func(c *Reduced) { c.progress = math.Inf(-1) }),
		corrupt(func(c *Reduced) { c.voids[0].lenM = math.NaN() }),
		corrupt(func(c *Reduced) { c.voids[1].lenM = -1e-9 }),
		corrupt(func(c *Reduced) { c.voids[0].maxLenM = math.Inf(1) }),
		corrupt(func(c *Reduced) { c.voids[1].permM = math.NaN() }),
	} {
		if err := r.Restore(junk); err == nil {
			t.Errorf("garbage of %d bytes accepted", len(junk))
		}
		if !bytes.Equal(r.Snapshot(), good) {
			t.Fatalf("rejected payload of %d bytes changed the segment", len(junk))
		}
	}
}

// TestReducedResumeBitIdentical steps a segment through forward and
// reversed-current phases, checkpoints it mid-way, and checks a second
// segment restored from the checkpoint ends bit-identical to the
// uninterrupted one.
func TestReducedResumeBitIdentical(t *testing.T) {
	p := DefaultReducedParams()
	j := func(step int) units.CurrentDensity {
		if step%3 == 2 {
			return units.MAPerCm2(-2.5)
		}
		return units.MAPerCm2(2.5)
	}
	temp := units.Celsius(300)
	a := mustReduced(t, p)
	for step := 0; step < 3; step++ {
		a.Step(j(step), temp, 600)
	}
	b := mustReduced(t, p)
	if err := b.Restore(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for step := 3; step < 7; step++ {
		a.Step(j(step), temp, 600)
		b.Step(j(step), temp, 600)
	}
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Error("resumed state diverged from uninterrupted run")
	}
}
