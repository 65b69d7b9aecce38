package rngx

import (
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// script is a draw sequence covering every journalled op kind, with runs
// long enough that a cut can land inside one.
var script = []opRun{
	{Kind: opFloat64, Count: 3},
	{Kind: opNorm, Count: 4},
	{Kind: opIntN, Arg: 7, Count: 3},
	{Kind: opPerm, Arg: 5, Count: 2},
	{Kind: opSplit, Count: 3},
	{Kind: opFloat64, Count: 2},
}

// draw makes one draw of the given kind and folds it into a float64, so
// continuations of any kind can be compared (a Split is compared through
// its child's first draw).
func draw(s *Source, kind byte, arg int64) float64 {
	switch kind {
	case opFloat64:
		return s.Float64()
	case opNorm:
		return s.Normal(0, 1)
	case opIntN:
		return float64(s.IntN(int(arg)))
	case opPerm:
		sum := 0.0
		for i, v := range s.Perm(int(arg)) {
			sum += float64((i + 1) * v)
		}
		return sum
	default:
		return s.Split(int64(arg)).Float64()
	}
}

// drawScript makes the first n draws of script.
func drawScript(s *Source, n int) {
	for _, r := range script {
		for k := int64(0); k < r.Count && n > 0; k++ {
			draw(s, r.Kind, r.Arg)
			n--
		}
	}
}

// scriptLen is the total number of draws in script.
func scriptLen() int {
	n := 0
	for _, r := range script {
		n += int(r.Count)
	}
	return n
}

// assertSameContinuation checks that the next 1,000 draws of got and want
// agree, cycling through every op kind.
func assertSameContinuation(t *testing.T, got, want *Source) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		r := script[i%len(script)]
		if a, b := draw(got, r.Kind, r.Arg), draw(want, r.Kind, r.Arg); a != b {
			t.Fatalf("draw %d (kind %d): restored %g, twin %g", i, r.Kind, a, b)
		}
	}
}

func TestReplayContinuesPrefix(t *testing.T) {
	const seed = 42
	total := scriptLen()
	cases := []struct {
		name     string
		seed     int64
		prefix   func(*Source) // the receiver's draws before the restore
		twinLen  int           // script draws the snapshotted twin made
		fallback bool
	}{
		{"empty journal", seed, func(s *Source) {}, total, false},
		{"equal journal", seed, func(s *Source) { drawScript(s, total) }, total, false},
		{"partial last run", seed, func(s *Source) { drawScript(s, 5) }, total, false},
		{"run boundary", seed, func(s *Source) { drawScript(s, 7) }, total, false},
		{"inside IntN", seed, func(s *Source) { drawScript(s, 8) }, 9, false},
		{"inside Perm", seed, func(s *Source) { drawScript(s, 11) }, total, false},
		{"inside Split", seed, func(s *Source) { drawScript(s, 13) }, 14, false},
		{"different seed", seed + 1, func(s *Source) { drawScript(s, 4) }, total, true},
		{"non-prefix journal", seed, func(s *Source) { s.Normal(0, 1); s.Float64() }, total, true},
		{"diverging arg", seed, func(s *Source) { drawScript(s, 7); s.IntN(8) }, total, true},
		{"longer receiver journal", seed, func(s *Source) { drawScript(s, total); s.Float64() }, total, true},
		{"receiver ahead in a run", seed, func(s *Source) { drawScript(s, 6) }, 5, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			twin := New(seed)
			drawScript(twin, tc.twinLen)
			data := twin.Snapshot()

			recv := New(tc.seed)
			tc.prefix(recv)
			before := recv.rng
			if err := recv.Restore(data, unbounded); err != nil {
				t.Fatal(err)
			}
			if fellBack := recv.rng != before; fellBack != tc.fallback {
				t.Errorf("fell back to a fresh replay: %v, want %v", fellBack, tc.fallback)
			}
			assertSameContinuation(t, recv, twin)
		})
	}
}

// journalPayload frames runs the way Snapshot does, so a test can
// hand-craft journals no Source would write.
func journalPayload(seed int64, runs []opRun) []byte {
	buf := []byte{snapshotMagic}
	buf = binary.AppendVarint(buf, seed)
	buf = binary.AppendUvarint(buf, uint64(len(runs)))
	for _, r := range runs {
		buf = append(buf, r.Kind)
		buf = binary.AppendVarint(buf, r.Arg)
		buf = binary.AppendUvarint(buf, uint64(r.Count))
	}
	return buf
}

func TestReplayRejectsBadJournalUntouched(t *testing.T) {
	const seed = 11
	// Each journal opens with a valid extension of the receiver's own
	// draws, so only whole-journal validation keeps the receiver untouched.
	valid := opRun{Kind: opFloat64, Count: 5}
	for name, bad := range map[string]opRun{
		"zero count":   {Kind: opNorm, Count: 0},
		"IntN(0)":      {Kind: opIntN, Arg: 0, Count: 1},
		"unknown kind": {Kind: 200, Count: 1},
	} {
		t.Run(name, func(t *testing.T) {
			recv, untouched := New(seed), New(seed)
			recv.Float64()
			recv.Float64()
			untouched.Float64()
			untouched.Float64()
			if err := recv.Restore(journalPayload(seed, []opRun{valid, bad}), unbounded); err == nil {
				t.Fatal("bad journal accepted")
			}
			assertSameContinuation(t, recv, untouched)
		})
	}
}

// unbounded is a draw budget no test journal reaches.
const unbounded = math.MaxInt64

// TestRestoreBoundsReplay checks a journal claiming more draws than the
// caller's budget is refused before any replay, however large the claim,
// while one exactly at the budget restores.
func TestRestoreBoundsReplay(t *testing.T) {
	const seed, budget = 3, 100
	for name, tc := range map[string]struct {
		runs []opRun
		ok   bool
	}{
		"at the budget":       {[]opRun{{Kind: opNorm, Count: 60}, {Kind: opPerm, Arg: 4, Count: 10}}, true},
		"one over":            {[]opRun{{Kind: opNorm, Count: 101}}, false},
		"count near 2^62":     {[]opRun{{Kind: opNorm, Count: 1 << 62}}, false},
		"Perm counts its n":   {[]opRun{{Kind: opPerm, Arg: 101, Count: 1}}, false},
		"huge Perm":           {[]opRun{{Kind: opPerm, Arg: 1 << 40, Count: 1}}, false},
		"Perm(0) still costs": {[]opRun{{Kind: opPerm, Arg: 0, Count: 1 << 62}}, false},
		"sum overflows":       {[]opRun{{Kind: opNorm, Count: 1 << 62}, {Kind: opNorm, Count: 1 << 62}, {Kind: opNorm, Count: 1 << 62}}, false},
	} {
		t.Run(name, func(t *testing.T) {
			recv, untouched := New(seed), New(seed)
			recv.Normal(0, 1)
			untouched.Normal(0, 1)
			done := make(chan error, 1)
			go func() { done <- recv.Restore(journalPayload(seed, tc.runs), budget) }()
			select {
			case err := <-done:
				if tc.ok && err != nil {
					t.Fatal(err)
				}
				if !tc.ok {
					if err == nil {
						t.Fatal("journal over the draw budget accepted")
					}
					assertSameContinuation(t, recv, untouched)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("restore still replaying after 5s")
			}
		})
	}
}
