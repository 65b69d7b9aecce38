// Package rngx provides the deterministic random number generation used by
// the simulators: a seedable source with convenience distributions
// (normal, lognormal, log-uniform), stream splitting so concurrent
// components draw from independent, reproducible sequences, and exact
// snapshot/restore so long-running simulations can checkpoint mid-stream.
package rngx

import (
	"fmt"
	"math"
	"math/rand"
)

// opRun is one run of identical primitive draws in the snapshot journal.
// The underlying generator consumes a variable number of raw words per draw
// (e.g. the ziggurat normal sampler), so restoring a stream replays the
// journal against the seeded generator instead of copying raw state. Runs are
// length-encoded: components that draw the same primitive every step (sensor
// noise, for example) keep an O(1) journal regardless of simulation age.
type opRun struct {
	Kind  byte  // one of the op* constants
	Arg   int64 // draw argument where consumption depends on it (IntN, Perm)
	Count int64 // number of consecutive identical draws
}

const (
	opFloat64 byte = iota
	opNorm
	opIntN
	opPerm
	opSplit
)

// Source is a deterministic pseudo-random stream.
type Source struct {
	rng     *rand.Rand
	seed    int64
	journal []opRun
}

// record appends one draw to the journal, extending the last run when the
// draw matches it.
func (s *Source) record(kind byte, arg int64) {
	if n := len(s.journal); n > 0 {
		last := &s.journal[n-1]
		if last.Kind == kind && last.Arg == arg {
			last.Count++
			return
		}
	}
	s.journal = append(s.journal, opRun{Kind: kind, Arg: arg, Count: 1})
}

// New creates a Source from a seed. The same seed always yields the same
// sequence, which keeps every experiment byte-for-byte reproducible. The
// sequence is the one rand.New(rand.NewSource(seed)) gives (see lfgSource).
func New(seed int64) *Source {
	return &Source{rng: rand.New(newLFG(seed)), seed: seed}
}

// Split derives an independent child stream labelled by id. Children of the
// same parent with different ids are decorrelated; the parent is unaffected
// beyond consuming one draw.
func (s *Source) Split(id int64) *Source {
	s.record(opSplit, 0)
	// SplitMix64-style hash of (parent seed draw, id) for the child seed.
	z := uint64(s.rng.Int63()) ^ (uint64(id) * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return New(int64(z & 0x7fffffffffffffff))
}

// Float64 draws uniformly from [0, 1).
func (s *Source) Float64() float64 {
	s.record(opFloat64, 0)
	return s.rng.Float64()
}

// IntN draws uniformly from [0, n).
func (s *Source) IntN(n int) int {
	s.record(opIntN, int64(n))
	return s.rng.Intn(n)
}

// Uniform draws uniformly from [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Normal draws from a Gaussian with the given mean and standard deviation.
func (s *Source) Normal(mean, sigma float64) float64 {
	s.record(opNorm, 0)
	return mean + sigma*s.rng.NormFloat64()
}

// LogNormal draws from a lognormal distribution where the underlying normal
// has mean mu and deviation sigma (both in log space).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// LogUniform draws x such that log(x) is uniform over [log(lo), log(hi)].
// Both bounds must be positive.
func (s *Source) LogUniform(lo, hi float64) float64 {
	return math.Exp(s.Uniform(math.Log(lo), math.Log(hi)))
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	s.record(opPerm, int64(n))
	return s.rng.Perm(n)
}

// Bool draws true with probability p.
func (s *Source) Bool(p float64) bool { return s.Float64() < p }

// validate rejects a journal that no sequence of draws could have produced,
// or one that makes more than maxDraws draws on the generator. A Perm(n)
// draw counts n draws (one per element, at least one), so the bound caps
// the work and memory a replay can take, whatever the journal claims.
func validate(runs []opRun, maxDraws int64) error {
	left := maxDraws
	for i, r := range runs {
		if r.Count <= 0 {
			return fmt.Errorf("rngx: restore: run %d: count %d invalid", i, r.Count)
		}
		cost := int64(1)
		switch r.Kind {
		case opFloat64, opNorm, opSplit:
		case opIntN:
			if r.Arg <= 0 {
				return fmt.Errorf("rngx: restore: run %d: IntN(%d) invalid", i, r.Arg)
			}
		case opPerm:
			if r.Arg < 0 {
				return fmt.Errorf("rngx: restore: run %d: Perm(%d) invalid", i, r.Arg)
			}
			cost = max(r.Arg, 1)
		default:
			return fmt.Errorf("rngx: restore: unknown op kind %d", r.Kind)
		}
		if left < 0 || r.Count > left/cost {
			return fmt.Errorf("rngx: restore: journal makes more than %d draws", maxDraws)
		}
		left -= r.Count * cost
	}
	return nil
}

// advance consumes count draws of run r's kind from rng.
func advance(rng *rand.Rand, r opRun, count int64) {
	switch r.Kind {
	case opFloat64:
		for k := int64(0); k < count; k++ {
			rng.Float64()
		}
	case opNorm:
		for k := int64(0); k < count; k++ {
			rng.NormFloat64()
		}
	case opIntN:
		for k := int64(0); k < count; k++ {
			rng.Intn(int(r.Arg))
		}
	case opPerm:
		for k := int64(0); k < count; k++ {
			rng.Perm(int(r.Arg))
		}
	case opSplit:
		for k := int64(0); k < count; k++ {
			rng.Int63()
		}
	}
}

// prefixOf reports how far the receiver's journal already is into runs:
// ok when it is a prefix of runs (its last run may be a shorter copy of the
// matching run), with i the index of the first run not fully consumed and
// done the draws of runs[i] already made.
func (s *Source) prefixOf(runs []opRun) (i int, done int64, ok bool) {
	n := len(s.journal)
	if n == 0 {
		return 0, 0, true
	}
	if n > len(runs) {
		return 0, 0, false
	}
	for k := 0; k < n-1; k++ {
		if s.journal[k] != runs[k] {
			return 0, 0, false
		}
	}
	last, want := s.journal[n-1], runs[n-1]
	if last.Kind != want.Kind || last.Arg != want.Arg || last.Count > want.Count {
		return 0, 0, false
	}
	if last.Count == want.Count {
		return n, 0, true
	}
	return n - 1, last.Count, true
}

// replay moves the receiver to the stream position the journal describes.
// When the receiver runs the same seed and has drawn a prefix of the
// journal — always so for a freshly built component restoring its own later
// snapshot — it only makes the missing draws on its existing generator;
// otherwise it replays the whole journal against a fresh one. Either way
// the generator and the draw sequence match the original's, so the
// continuation is identical. The journal is validated against maxDraws
// first, so a rejected snapshot leaves the receiver untouched and advances
// no generator.
func (s *Source) replay(seed int64, runs []opRun, maxDraws int64) error {
	if err := validate(runs, maxDraws); err != nil {
		return err
	}
	rng := s.rng
	from, done, ok := s.prefixOf(runs)
	if rng == nil || seed != s.seed || !ok {
		rng, from, done = rand.New(newLFG(seed)), 0, 0
	}
	for i := from; i < len(runs); i++ {
		advance(rng, runs[i], runs[i].Count-done)
		done = 0
	}
	s.rng = rng
	s.seed = seed
	s.journal = runs
	return nil
}
