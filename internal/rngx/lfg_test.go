package rngx

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// matchSeeds returns the seeds TestSourceMatchesMathRand checks: a run of
// small seeds around zero, a spread over the whole int64 range, and the
// edges of math/rand's seed normalisation.
func matchSeeds() []int64 {
	var seeds []int64
	for s := int64(-500); s < 500; s++ {
		seeds = append(seeds, s)
	}
	z := uint64(0x243f6a8885a308d3)
	for i := 0; i < 1024; i++ {
		z += 0x9e3779b97f4a7c15
		seeds = append(seeds, int64(z^z>>29))
	}
	return append(seeds,
		0, 1, -1, zeroSeed,
		lehmerMod, -lehmerMod, lehmerMod-1, 2*lehmerMod,
		1<<31, -1<<31,
		math.MinInt64, math.MaxInt64, math.MinInt64+1)
}

// assertSameDraws makes an interleaved mix of every rand.Rand draw the
// package uses, and the raw words, on got and want, failing at the first
// difference.
func assertSameDraws(t *testing.T, seed int64, got, want *rand.Rand) {
	t.Helper()
	for round := 0; round < 8; round++ {
		if a, b := got.Float64(), want.Float64(); a != b {
			t.Fatalf("seed %d round %d: Float64 %v, math/rand %v", seed, round, a, b)
		}
		if a, b := got.NormFloat64(), want.NormFloat64(); a != b {
			t.Fatalf("seed %d round %d: NormFloat64 %v, math/rand %v", seed, round, a, b)
		}
		for _, n := range []int{7, 1000, 1<<31 - 1, 1 << 31, 1<<40 + 3} {
			if a, b := got.Intn(n), want.Intn(n); a != b {
				t.Fatalf("seed %d round %d: Intn(%d) %d, math/rand %d", seed, round, n, a, b)
			}
		}
		a, b := got.Perm(9), want.Perm(9)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d round %d: Perm(9) %v, math/rand %v", seed, round, a, b)
			}
		}
		if a, b := got.Int63(), want.Int63(); a != b {
			t.Fatalf("seed %d round %d: Int63 %d, math/rand %d", seed, round, a, b)
		}
		if a, b := got.Uint64(), want.Uint64(); a != b {
			t.Fatalf("seed %d round %d: Uint64 %d, math/rand %d", seed, round, a, b)
		}
	}
}

// TestSourceMatchesMathRand checks the generator New builds against
// math/rand's own: the same draws for every seed, and the same stream again
// after reseeding a used generator.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := matchSeeds()
	if len(seeds) < 2000 {
		t.Fatalf("only %d seeds", len(seeds))
	}
	for _, seed := range seeds {
		got := New(seed).rng
		assertSameDraws(t, seed, got, rand.New(rand.NewSource(seed)))
		got.Seed(seed)
		assertSameDraws(t, seed, got, rand.New(rand.NewSource(seed)))
	}
}

// FuzzRestoreSource feeds arbitrary bytes to Source.Restore. It must never
// panic; a payload it accepts must be exactly what Snapshot writes back, and
// must continue the same stream whether it is restored onto a fresh Source
// of its seed (continuing that generator) or onto a Source of another seed
// (replaying onto a freshly seeded one).
func FuzzRestoreSource(f *testing.F) {
	const seed, maxDraws = 42, 1 << 10
	for n := 0; n <= scriptLen(); n++ {
		twin := New(seed)
		drawScript(twin, n)
		f.Add(twin.Snapshot())
	}
	f.Add(journalPayload(seed, []opRun{{Kind: opFloat64, Count: 5}, {Kind: opNorm, Count: 0}}))
	f.Add(journalPayload(seed, []opRun{{Kind: opIntN, Arg: 0, Count: 1}}))
	f.Add(journalPayload(seed, []opRun{{Kind: 200, Count: 1}}))
	f.Add(journalPayload(seed, []opRun{{Kind: opPerm, Arg: 1 << 40, Count: 1}}))
	f.Add(journalPayload(math.MinInt64, []opRun{{Kind: opNorm, Count: maxDraws}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var probe Source
		if err := probe.Restore(data, maxDraws); err != nil {
			return
		}
		if got := probe.Snapshot(); !bytes.Equal(got, data) {
			t.Fatalf("accepted %x but re-encodes as %x", data, got)
		}
		fresh := New(probe.seed)
		other := New(^probe.seed)
		other.Float64()
		for _, s := range []*Source{fresh, other} {
			if err := s.Restore(data, maxDraws); err != nil {
				t.Fatalf("accepted once, then refused: %v", err)
			}
		}
		for i := 0; i < 64; i++ {
			r := script[i%len(script)]
			if a, b := draw(fresh, r.Kind, r.Arg), draw(other, r.Kind, r.Arg); a != b {
				t.Fatalf("draw %d (kind %d): continued %g, replayed %g", i, r.Kind, a, b)
			}
		}
	})
}

// benchSink keeps the benchmarks' generators on the heap, as a Source's is.
var benchSink *rand.Rand

func BenchmarkNew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = New(int64(i)).rng
	}
}

// BenchmarkMathRandNewSource is the seeding New replaces, for reference.
func BenchmarkMathRandNewSource(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = rand.New(rand.NewSource(int64(i)))
	}
}

// BenchmarkRestore restores a sensor noise stream 200 reads in onto a
// freshly built Source of its seed, as a rehydrating chip does.
func BenchmarkRestore(b *testing.B) {
	const seed, reads = 7, 200
	src := New(seed)
	for i := 0; i < reads; i++ {
		src.Normal(0, 1)
	}
	data := src.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := New(seed).Restore(data, reads); err != nil {
			b.Fatal(err)
		}
	}
}
