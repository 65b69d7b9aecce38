package bti

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"deepheal/internal/obs"
	"deepheal/internal/rngx"
	"deepheal/internal/units"
)

// relDiff returns |a-b| / max(|a|, |b|, floor) — a relative difference that
// stays finite around zero.
func relDiff(a, b float64) float64 {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1e-30 {
		scale = 1e-30
	}
	return math.Abs(a-b) / scale
}

// randomOcc fills a fresh occupancy vector with values in [0, 1].
func randomOcc(rng *rngx.Source, n int) []float64 {
	occ := make([]float64, n)
	for i := range occ {
		occ[i] = rng.Float64()
	}
	return occ
}

// evolve advances occ by one dt substep as a single-substep phase with the
// given phase token: the cache lookup runs with the token, and a miss takes
// the separable sweep.
func (g *cetGrid) evolve(occ []float64, captureAF, emitAF, dt float64, phase uint64) {
	p := phaseSweeper{g: g, captureAF: captureAF, emitAF: emitAF, token: phase}
	p.sweep([]*Device{{grid: g, occ: occ}}, dt)
	p.close()
}

// evolveSeparable runs the direct separable sweep on occ (no kernel, no
// borrowed pInf).
func (g *cetGrid) evolveSeparable(occ []float64, captureAF, emitAF, dt float64) {
	separableSweep(g, []*Device{{grid: g, occ: occ}}, nil, captureAF, emitAF, dt)
}

// TestEvolveMatchesNaive is the core differential guarantee of the kernel
// rework: both optimized paths (the direct separable sweep and the cached
// kernel) must match the naive per-cell-exponential reference within 1e-12
// relative, across random grid sizes, acceleration factors and substeps.
func TestEvolveMatchesNaive(t *testing.T) {
	rng := rngx.New(42)
	sizes := []struct{ nc, ne int }{{2, 2}, {5, 9}, {12, 18}, {28, 44}}
	for _, size := range sizes {
		p := DefaultParams()
		p.GridCapture, p.GridEmission = size.nc, size.ne
		g := newCETGrid(p)
		for trial := 0; trial < 50; trial++ {
			captureAF := 0.0
			if rng.Bool(0.5) {
				captureAF = rng.LogUniform(1e-3, 1e3)
			}
			emitAF := rng.LogUniform(1e-3, 1e3)
			dt := rng.LogUniform(1e-2, 1e5)

			ref := randomOcc(rng, size.nc*size.ne)
			sep := append([]float64(nil), ref...)
			ker := append([]float64(nil), ref...)

			naiveSweep(g, ref, captureAF, emitAF, dt)
			g.evolveSeparable(sep, captureAF, emitAF, dt)
			// Promote the key (first sight in phase 1, build in phase 2),
			// then apply the cached kernel.
			g.evolve(make([]float64, len(ref)), captureAF, emitAF, dt, 1)
			g.evolve(ker, captureAF, emitAF, dt, 2)

			for i := range ref {
				if d := relDiff(sep[i], ref[i]); d > 1e-12 {
					t.Fatalf("%dx%d separable cell %d: %g vs naive %g (rel %g)", size.nc, size.ne, i, sep[i], ref[i], d)
				}
				if ker[i] != sep[i] {
					t.Fatalf("%dx%d kernel cell %d: %g, separable %g — the two optimized paths must agree bitwise", size.nc, size.ne, i, ker[i], sep[i])
				}
				if ker[i] < 0 || ker[i] > 1 {
					t.Fatalf("%dx%d kernel cell %d out of [0,1]: %g", size.nc, size.ne, i, ker[i])
				}
			}
		}
	}
}

// TestSeparableShiftCountsFrozenCells sweeps a grid where some cells are
// frozen — a capture factor so small that rc underflows to zero, with no
// emission — and checks the stored shift still counts them, next to the
// stressing, borrowed-pInf and non-stressing loops.
func TestSeparableShiftCountsFrozenCells(t *testing.T) {
	p := DefaultParams().Coarse()
	g := newCETGrid(p)
	pInf := g.buildKernel(1, 1, maxSubstep).pInf
	cases := []struct {
		name              string
		captureAF, emitAF float64
		pInf              []float64
	}{
		{"frozen", 1e-320, 0, nil},
		{"stress", 1, 1, nil},
		{"borrowed pInf", 1, 1, pInf},
		{"rest", 0, 1, nil},
	}
	for _, tc := range cases {
		d := phaseTestDevice(rngx.New(3), p, g)
		separableSweep(g, []*Device{d}, tc.pInf, tc.captureAF, tc.emitAF, 300)
		if diff := shiftDiff(d); diff != "" {
			t.Errorf("%s: %s", tc.name, diff)
		}
		if tc.name == "frozen" && d.RecoverableV() == 0 {
			t.Error("frozen: the sweep left no occupied cell to count")
		}
	}
}

// TestEvolveShortCircuits verifies the degenerate-input guards: zero rates
// or a non-positive duration must leave the occupancy untouched.
func TestEvolveShortCircuits(t *testing.T) {
	p := DefaultParams().Coarse()
	g := newCETGrid(p)
	rng := rngx.New(7)
	occ := randomOcc(rng, g.nc*g.ne)
	want := append([]float64(nil), occ...)
	g.evolve(occ, 0, 0, 3600, 1)
	g.evolve(occ, 1, 1, 0, 1)
	g.evolve(occ, 1, 1, -5, 1)
	for i := range occ {
		if occ[i] != want[i] {
			t.Fatalf("cell %d modified by a degenerate evolve: %g != %g", i, occ[i], want[i])
		}
	}
}

// applyReference replays the seed implementation of Apply: naive per-cell
// evolution at fixed maxSubstep resolution, no kernel cache, no closed-form
// fast path. The production ApplyObserved must track it within 1e-12.
func applyReference(d *Device, c Condition, dur float64) {
	captureAF := d.params.captureAccel(c)
	emitAF := d.params.emissionAccel(c)
	elapsed := 0.0
	for elapsed < dur {
		step := math.Min(maxSubstep, dur-elapsed)
		naiveSweep(d.grid, d.occ, captureAF, emitAF, step)
		resyncShift(d)
		d.stepPermanent(c, captureAF, emitAF, step)
		elapsed += step
		d.age += step
	}
}

// TestApplyMatchesReference drives stress/recovery phase sequences through
// the production Apply (kernel cache plus the closed-form recovery fast
// path) and the seed reference in lockstep, comparing the full state after
// every phase.
func TestApplyMatchesReference(t *testing.T) {
	rng := rngx.New(99)
	conds := []Condition{StressAccel, RecoverPassive, RecoverActive, RecoverAccelerated, RecoverDeep}
	for trial := 0; trial < 10; trial++ {
		p := DefaultParams()
		if trial%2 == 0 {
			p = p.Coarse()
		}
		dev := MustNewDevice(p)
		ref := dev.Clone()
		for phase := 0; phase < 8; phase++ {
			c := conds[rng.IntN(len(conds))]
			dur := rng.Uniform(1, 4*3600)
			dev.Apply(c, dur)
			applyReference(ref, c, dur)
			if d := relDiff(dev.ShiftV(), ref.ShiftV()); d > 1e-12 {
				t.Fatalf("trial %d phase %d (%v, %.0fs): ShiftV %g vs reference %g (rel %g)",
					trial, phase, c, dur, dev.ShiftV(), ref.ShiftV(), d)
			}
			if d := relDiff(dev.PermanentV(), ref.PermanentV()); d > 1e-12 {
				t.Fatalf("trial %d phase %d (%v, %.0fs): PermanentV %g vs reference %g (rel %g)",
					trial, phase, c, dur, dev.PermanentV(), ref.PermanentV(), d)
			}
			for i := range dev.occ {
				// Occupancies live on [0, 1]; compare absolutely on that
				// scale (tiny cells near total cancellation have no stable
				// relative precision to demand).
				if d := math.Abs(dev.occ[i] - ref.occ[i]); d > 1e-12 {
					t.Fatalf("trial %d phase %d: occ[%d] %g vs reference %g (abs %g)",
						trial, phase, i, dev.occ[i], ref.occ[i], d)
				}
			}
			if dev.Age() != ref.Age() {
				t.Fatalf("trial %d phase %d: age %g vs reference %g", trial, phase, dev.Age(), ref.Age())
			}
		}
	}
}

// TestObservationSplitting checks that observation callbacks aligned with
// the substep grid do not perturb the trajectory. Under stress the substep
// boundaries coincide, so the observed device must end bit-identical to an
// unobserved one; under recovery the closed-form fast path collapses the
// substeps differently around each observation, so agreement is to 1e-12.
// The callback times must tile the phase either way.
func TestObservationSplitting(t *testing.T) {
	for _, c := range []Condition{StressAccel, RecoverDeep} {
		plain := MustNewDevice(DefaultParams().Coarse())
		plain.Apply(StressAccel, 7200) // shared preload so recovery has signal
		observed := plain.Clone()

		plain.Apply(c, 2*3600)
		var times []float64
		observed.ApplyObserved(c, 2*3600, 1800, func(tt, _ float64) { times = append(times, tt) })

		exact := c.Stressing()
		if d := relDiff(plain.ShiftV(), observed.ShiftV()); (exact && d != 0) || d > 1e-12 {
			t.Fatalf("%v: observed ShiftV %g vs plain %g (rel %g)", c, observed.ShiftV(), plain.ShiftV(), d)
		}
		for i := range plain.occ {
			if d := math.Abs(plain.occ[i] - observed.occ[i]); (exact && d != 0) || d > 1e-12 {
				t.Fatalf("%v: occ[%d] diverged under aligned observation (abs %g)", c, i, d)
			}
		}
		want := []float64{1800, 3600, 5400, 7200}
		if len(times) != len(want) {
			t.Fatalf("%v: observation times %v, want %v", c, times, want)
		}
		for i := range want {
			if times[i] != want[i] {
				t.Fatalf("%v: observation times %v, want %v", c, times, want)
			}
		}
	}
}

// TestSharedGrid verifies that equal Params share one immutable grid (and
// with it one kernel cache) while distinct Params do not.
func TestSharedGrid(t *testing.T) {
	p := DefaultParams()
	a, b := MustNewDevice(p), MustNewDevice(p)
	if a.grid != b.grid {
		t.Fatal("devices with equal Params must share a grid")
	}
	q := p
	q.MaxShiftV *= 2
	c := MustNewDevice(q)
	if c.grid == a.grid {
		t.Fatal("devices with different Params must not share a grid")
	}
}

// TestKernelCacheBounds fills the cache past its float budget with distinct
// promoted keys and checks the accounting invariant: the resident footprint
// never exceeds maxKernelFloats (full cache refuses admission), and cached
// keys keep resolving.
func TestKernelCacheBounds(t *testing.T) {
	p := DefaultParams() // 28x44: 2464 floats per kernel, budget fits ~851
	g := newCETGrid(p)
	occ := make([]float64, g.nc*g.ne)
	for i := 0; i < 1200; i++ {
		dt := 1 + float64(i) // distinct key per i
		g.evolve(occ, 1, 1, dt, uint64(2*i+1))
		g.evolve(occ, 1, 1, dt, uint64(2*i+2))
		g.mu.RLock()
		floats, entries := g.kernelFloats, len(g.kernels)
		g.mu.RUnlock()
		if floats > maxKernelFloats {
			t.Fatalf("after %d keys: kernelFloats %d exceeds budget %d", i+1, floats, maxKernelFloats)
		}
		if entries*2*g.nc*g.ne != floats {
			t.Fatalf("after %d keys: %d entries inconsistent with %d floats", i+1, entries, floats)
		}
	}
	if k := g.kernel(1, 1, 1, 99999); k == nil {
		t.Fatal("first promoted key evicted from a refuse-on-full cache")
	}
	if k := g.kernel(1, 1, 1200, 99999); k != nil {
		t.Fatal("key past the budget was admitted")
	}
}

// TestConcurrentEvolveSharedGrid exercises the kernel cache from many
// goroutines sharing one grid — the simulator's sharded wearout stage — and
// checks every result against the naive reference. Run under -race this
// also validates the cache's locking.
func TestConcurrentEvolveSharedGrid(t *testing.T) {
	p := DefaultParams().Coarse()
	g := newCETGrid(p)
	keys := []condKey{
		{1, 1, 900}, {2, 1, 900}, {1, 3, 900}, {0, 2, 3600}, {5, 5, 450},
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rngx.New(int64(w))
			for iter := 0; iter < 200; iter++ {
				k := keys[rng.IntN(len(keys))]
				occ := randomOcc(rng, g.nc*g.ne)
				want := append([]float64(nil), occ...)
				g.evolve(occ, k.captureAF, k.emitAF, k.dt, uint64(w*1000+iter))
				naiveSweep(g, want, k.captureAF, k.emitAF, k.dt)
				for i := range occ {
					if relDiff(occ[i], want[i]) > 1e-12 {
						errs <- "concurrent evolve diverged from naive reference"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestFailedAdmissionKeepsPromotion is the regression test for a lost-seen
// bug: kernel() deleted the key's seen entry before the unlocked build, so
// when a racing builder filled the float budget first the built kernel was
// discarded AND the promotion credit was gone — the key had to re-earn
// promotion across two fresh phases. The fix restores the seen entry on a
// failed admission (the test-only build hook stands in for the racing
// builder, deterministically).
func TestFailedAdmissionKeepsPromotion(t *testing.T) {
	p := DefaultParams().Coarse()
	g := newCETGrid(p)
	key := condKey{1, 1, 900}

	if k := g.kernel(1, 1, 900, 1); k != nil {
		t.Fatal("unseen key returned a kernel")
	}

	// Second phase: promotion proceeds, but the budget fills while the
	// kernel is built outside the lock.
	g.testBuildHook = func() {
		g.mu.Lock()
		g.kernelFloats = maxKernelFloats
		g.mu.Unlock()
	}
	k := g.kernel(1, 1, 900, 2)
	g.testBuildHook = nil
	if k == nil {
		t.Fatal("promotion phase returned no kernel (the built kernel should still serve this substep)")
	}
	g.mu.RLock()
	_, cached := g.kernels[key]
	first, seen := g.seen[key]
	g.mu.RUnlock()
	if cached {
		t.Fatal("kernel admitted past a full float budget")
	}
	if !seen || first != 1 {
		t.Fatalf("failed admission lost the promotion credit: seen=%v first=%d, want seen at phase 1", seen, first)
	}

	// With budget available again the key must promote on the very next
	// request from a new phase, not re-earn two fresh phases.
	g.mu.Lock()
	g.kernelFloats = 0
	g.mu.Unlock()
	if k := g.kernel(1, 1, 900, 3); k == nil {
		t.Fatal("key had to re-earn promotion after a failed admission")
	}
	g.mu.RLock()
	_, cached = g.kernels[key]
	g.mu.RUnlock()
	if !cached {
		t.Fatal("kernel not cached after the retried promotion")
	}
}

// TestKernelCacheMetrics checks the obs wiring: the cache paths move the
// right counters, the resident-floats gauge tracks admissions, a stressing
// phase fills one scratch kernel for all its full substeps after a single
// lookup, and a full cache answers lookups as plain misses.
func TestKernelCacheMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)

	p := DefaultParams().Coarse()
	g := newCETGrid(p)
	occ := make([]float64, g.nc*g.ne)
	g.evolve(occ, 1, 1, 900, 1) // first sight: miss, separable sweep
	g.evolve(occ, 1, 1, 900, 2) // second phase: promotion build
	g.evolve(occ, 1, 1, 900, 3) // cached: hit

	snap := reg.Snapshot()
	if got := snap.Counters["deepheal_bti_kernel_builds_total"]; got != 1 {
		t.Errorf("builds = %d, want 1", got)
	}
	if got := snap.Counters["deepheal_bti_kernel_hits_total"]; got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := snap.Counters["deepheal_bti_kernel_misses_total"]; got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := snap.Counters["deepheal_bti_separable_sweeps_total"]; got != 1 {
		t.Errorf("separable sweeps = %d, want 1", got)
	}
	if got := snap.Gauges["deepheal_bti_kernel_resident_floats"]; got != float64(2*g.nc*g.ne) {
		t.Errorf("resident floats = %g, want %d", got, 2*g.nc*g.ne)
	}

	delta := func(before *obs.Snapshot, name string) uint64 {
		return reg.Snapshot().Counters[name] - before.Counters[name]
	}

	// A 2.5-substep stress phase on a cold grid: one lookup for the two
	// full substeps (a miss that fills the phase kernel), one for the
	// remainder (a miss served with the phase kernel's pInf).
	before := reg.Snapshot()
	d := newDeviceOnGrid(p, newCETGrid(p))
	d.Apply(StressAccel, 2.5*maxSubstep)
	if got := delta(before, "deepheal_bti_phase_kernels_total"); got != 1 {
		t.Errorf("phase kernels = %d, want 1", got)
	}
	if got := delta(before, "deepheal_bti_kernel_misses_total"); got != 2 {
		t.Errorf("phase misses = %d, want 2 (one per substep length)", got)
	}

	// On a full cache, a key requested from two phases would be promoted —
	// but the read lock answers both lookups as misses, and no admission is
	// attempted, so nothing counts as a refusal.
	full := fullCacheGrid(t, p)
	before = reg.Snapshot()
	full.evolve(occ, 7, 7, 900, 1<<40)
	full.evolve(occ, 7, 7, 900, 1<<40+1)
	if got := delta(before, "deepheal_bti_kernel_misses_total"); got != 2 {
		t.Errorf("full-cache misses = %d, want 2", got)
	}
	if got := delta(before, "deepheal_bti_kernel_admission_refusals_total"); got != 0 {
		t.Errorf("full-cache refusals = %d, want 0 (a read-lock miss is not a refusal)", got)
	}
	if got := delta(before, "deepheal_bti_kernel_builds_total"); got != 0 {
		t.Errorf("full-cache builds = %d, want 0", got)
	}
}

// perSubstepSeparable is a copy of the separable sweep as it stood before
// sweeps became phase-scoped: one division per cell for pInf on every
// substep, stress or rest.
func perSubstepSeparable(g *cetGrid, occ []float64, captureAF, emitAF, dt float64) {
	re := make([]float64, g.ne)
	decayE := make([]float64, g.ne)
	for j := range re {
		re[j] = emitAF / g.tauE[j]
		decayE[j] = math.Exp(-re[j] * dt)
	}
	for i := 0; i < g.nc; i++ {
		var rc float64
		if captureAF > 0 {
			rc = captureAF / g.tauC[i]
		}
		dc := math.Exp(-rc * dt)
		row := occ[i*g.ne : (i+1)*g.ne]
		for j := range row {
			rate := rc + re[j]
			if rate <= 0 {
				continue
			}
			pInf := rc / rate
			row[j] = pInf + (row[j]-pInf)*(dc*decayE[j])
		}
	}
}

// applyPerSubstep is a copy of the Apply loop as it stood before sweeps
// became phase-scoped: every substep is swept on its own, and outside
// stress the substeps collapse into one sweep at the accumulated duration.
// It never touches the kernel cache — a cached kernel and the separable
// sweep agree bitwise (TestEvolveMatchesNaive), so the per-substep
// trajectory does not depend on what the cache held.
func applyPerSubstep(d *Device, c Condition, dur float64) {
	captureAF := d.params.captureAccel(c)
	emitAF := d.params.emissionAccel(c)
	evolve := func(dt float64) {
		if dt > 0 && (captureAF > 0 || emitAF > 0) {
			perSubstepSeparable(d.grid, d.occ, captureAF, emitAF, dt)
			resyncShift(d)
		}
	}
	occLag := 0.0
	elapsed := 0.0
	for elapsed < dur {
		step := math.Min(maxSubstep, dur-elapsed)
		if c.Stressing() {
			evolve(step)
		} else {
			occLag += step
		}
		d.stepPermanent(c, captureAF, emitAF, step)
		elapsed += step
		d.age += step
	}
	evolve(occLag)
}

// resyncShift recomputes the stored shift of a device whose occupancy a
// test wrote directly, outside the sweeps that keep it.
func resyncShift(d *Device) { d.shift = gridShift(d.grid, d.occ) }

// shiftDiff describes a stored shift that differs, bit for bit, from a
// fresh gridShift of the device's occupancy, or returns "" when they agree.
func shiftDiff(d *Device) string {
	got, want := d.RecoverableV(), gridShift(d.grid, d.occ)
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Sprintf("stored shift %v, occupancy holds %v", got, want)
	}
	return ""
}

// stateDiff describes the first difference between two devices' state,
// bit for bit (telling −0 from +0), or returns "" when they are identical.
// A stored shift out of step with got's occupancy is a difference too.
func stateDiff(got, want *Device) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if diff := shiftDiff(got); diff != "" {
		return diff
	}
	if !same(got.precursorV, want.precursorV) || !same(got.lockedV, want.lockedV) || !same(got.age, want.age) {
		return fmt.Sprintf("permanent state (%v,%v,%v), want (%v,%v,%v)",
			got.precursorV, got.lockedV, got.age, want.precursorV, want.lockedV, want.age)
	}
	for i := range want.occ {
		if !same(got.occ[i], want.occ[i]) {
			return fmt.Sprintf("occ[%d] = %v, want %v", i, got.occ[i], want.occ[i])
		}
	}
	return ""
}

// phaseTestDevice returns a device on g with a random occupancy and some
// permanent wear. Cell 0 holds −0, which the snapshot decoders accept.
func phaseTestDevice(rng *rngx.Source, p Params, g *cetGrid) *Device {
	d := newDeviceOnGrid(p, g)
	for i := range d.occ {
		d.occ[i] = rng.Float64()
	}
	d.occ[0] = math.Copysign(0, -1)
	resyncShift(d)
	d.precursorV, d.lockedV, d.age = 0.01*rng.Float64(), 0.005*rng.Float64(), 3600
	return d
}

// promote records and admits the kernel for one condition key on g.
func promote(g *cetGrid, captureAF, emitAF, dt float64) {
	occ := make([]float64, g.nc*g.ne)
	tok := g.phase.Add(2)
	g.evolve(occ, captureAF, emitAF, dt, tok-1)
	g.evolve(occ, captureAF, emitAF, dt, tok)
}

// remainderOf returns the length of the last substep of a dur-second
// stressing phase, accumulated the way the substep loop accumulates it.
func remainderOf(dur float64) float64 {
	elapsed, step := 0.0, 0.0
	for elapsed < dur {
		step = math.Min(maxSubstep, dur-elapsed)
		elapsed += step
	}
	return step
}

// TestPhaseKernelMatchesPerSubstep is the differential guarantee of the
// phase-scoped sweep: Apply and BatchApply must end bit-identical to the
// per-substep path they replaced, and within 1e-12 of the naive
// applyReference, for every phase shape — sub-substep, exact multiples, a
// remainder, and long phases — under stress and rest, whatever the kernel
// cache holds: nothing, the phase's full-substep key, only its remainder
// key, or a full budget. Every device's stored shift must equal a fresh
// gridShift of its occupancy bit for bit (stateDiff checks it), including
// at each callback of an observed phase.
func TestPhaseKernelMatchesPerSubstep(t *testing.T) {
	p := DefaultParams().Coarse()
	conds := []Condition{
		StressAccel,
		{GateVoltage: 1.0, Temp: units.Celsius(85)},
		RecoverPassive,
		RecoverDeep,
		{GateVoltage: 0, Temp: units.Celsius(85)}, // a gated core's rest
	}
	caches := []string{"cold", "phase-key", "remainder-key", "full"}
	full := fullCacheGrid(t, p) // nothing is admitted to it, so one serves every case
	rng := rngx.New(13)
	for _, mult := range []float64{0.5, 1, 2, 2.5, 3.7, 111} {
		dur := mult * maxSubstep
		for _, c := range conds {
			captureAF, emitAF := p.captureAccel(c), p.emissionAccel(c)
			for _, cache := range caches {
				g := full
				if cache != "full" {
					g = newCETGrid(p)
				}
				switch {
				case cache == "phase-key":
					promote(g, captureAF, emitAF, maxSubstep)
				case cache == "remainder-key" && c.Stressing():
					promote(g, captureAF, emitAF, remainderOf(dur))
				case cache == "remainder-key":
					promote(g, captureAF, emitAF, dur) // the collapsed rest sweep
				}
				label := fmt.Sprintf("%v for %g×maxSubstep, %s cache", c, mult, cache)

				// Apply on one device.
				d := phaseTestDevice(rng, p, g)
				want := d.Clone()
				naive := d.Clone()
				d.Apply(c, dur)
				applyPerSubstep(want, c, dur)
				if diff := stateDiff(d, want); diff != "" {
					t.Fatalf("%s Apply: %s", label, diff)
				}
				applyReference(naive, c, dur)
				for i := range d.occ {
					if diff := math.Abs(d.occ[i] - naive.occ[i]); diff > 1e-12 {
						t.Fatalf("%s: occ[%d] %g vs reference %g", label, i, d.occ[i], naive.occ[i])
					}
				}
				if diff := relDiff(d.ShiftV(), naive.ShiftV()); diff > 1e-12 {
					t.Fatalf("%s: ShiftV %g vs reference %g (rel %g)", label, d.ShiftV(), naive.ShiftV(), diff)
				}

				// ApplyObserved, split off the substep grid: each callback
				// sees the flushed occupancy's shift.
				watched := phaseTestDevice(rng, p, g)
				watched.ApplyObserved(c, dur, 0.7*maxSubstep, func(tt, _ float64) {
					if diff := shiftDiff(watched); diff != "" {
						t.Fatalf("%s ApplyObserved at %gs: %s", label, tt, diff)
					}
				})
				if diff := shiftDiff(watched); diff != "" {
					t.Fatalf("%s ApplyObserved: %s", label, diff)
				}

				// BatchApply on a same-grid group.
				group := make([]*Device, 3)
				wants := make([]*Device, len(group))
				for i := range group {
					group[i] = phaseTestDevice(rng, p, g)
					wants[i] = group[i].Clone()
				}
				BatchApply(group, c, dur)
				for i := range group {
					applyPerSubstep(wants[i], c, dur)
					if diff := stateDiff(group[i], wants[i]); diff != "" {
						t.Fatalf("%s BatchApply member %d: %s", label, i, diff)
					}
				}
			}
		}
	}
}

// TestPhaseKernelConcurrentSharedGrid runs phase-scoped Apply and BatchApply
// from two goroutines on one shared grid — a cold one, so keys race through
// promotion, and a full one, so every phase fills a pooled scratch kernel.
// Each result must stay bit-identical to the per-substep path; under -race
// this also covers concurrent use of the scratch-kernel and axis pools.
func TestPhaseKernelConcurrentSharedGrid(t *testing.T) {
	p := DefaultParams().Coarse()
	for _, cache := range []string{"cold", "full"} {
		g := newCETGrid(p)
		if cache == "full" {
			g = fullCacheGrid(t, p)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 2)
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rngx.New(int64(100 + w))
				for iter := 0; iter < 40; iter++ {
					stress := Condition{GateVoltage: 1.0, Temp: units.Celsius(70 + float64(iter%5))}
					rest := Condition{Temp: stress.Temp}
					dur := []float64{2.5, 3.7, 1}[iter%3] * maxSubstep
					devs := []*Device{phaseTestDevice(rng, p, g)}
					if iter%2 == 1 {
						devs = append(devs, phaseTestDevice(rng, p, g))
					}
					wants := make([]*Device, len(devs))
					for i, d := range devs {
						wants[i] = d.Clone()
					}
					BatchApply(devs, stress, dur)
					BatchApply(devs, rest, 4*maxSubstep-dur)
					for i, d := range devs {
						applyPerSubstep(wants[i], stress, dur)
						applyPerSubstep(wants[i], rest, 4*maxSubstep-dur)
						if diff := stateDiff(d, wants[i]); diff != "" {
							errs <- fmt.Sprintf("%s cache, worker %d iter %d: %s", cache, w, iter, diff)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		if msg, ok := <-errs; ok {
			t.Fatal(msg)
		}
	}
}
