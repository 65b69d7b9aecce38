package bti

import (
	"testing"

	"deepheal/internal/rngx"
	"deepheal/internal/units"
)

func benchRng() *rngx.Source { return rngx.New(1) }

// BenchmarkEvolveHour measures one hour of CET-map evolution at the default
// grid resolution.
func BenchmarkEvolveHour(b *testing.B) {
	d := MustNewDevice(DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Apply(StressAccel, units.Hours(1))
	}
}

// BenchmarkEvolveHourCoarse measures the system-simulation grid.
func BenchmarkEvolveHourCoarse(b *testing.B) {
	d := MustNewDevice(DefaultParams().Coarse())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Apply(StressAccel, units.Hours(1))
	}
}

// BenchmarkRecoveryFraction measures the Table I probe (clone + 6 h deep
// recovery).
func BenchmarkRecoveryFraction(b *testing.B) {
	d := MustNewDevice(DefaultParams())
	d.Apply(StressAccel, units.Hours(24))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.RecoveryFraction(RecoverDeep, units.Hours(6))
	}
}

// BenchmarkKernelMissNotFull measures one first-sight cache lookup on a
// grid whose kernel budget still has room: the miss takes the write lock and
// records the key in the promotion map, which empties every maxSeenKeys
// keys — the per-substep path of a die whose per-tile keys never recur.
func BenchmarkKernelMissNotFull(b *testing.B) {
	g := newCETGrid(DefaultParams().Coarse())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.kernel(1, 1, 1+float64(i), 1) != nil {
			b.Fatal("a first-sight key returned a kernel")
		}
	}
}

// fullCacheGrid returns a private grid for p (the process-wide cache stays
// untouched for the other benchmarks and tests) whose kernel-cache float
// budget is exhausted up front by admitting distinct keys. Sweeps on it run
// in the full-cache steady state: every new condition key is refused.
func fullCacheGrid(tb testing.TB, p Params) *cetGrid {
	tb.Helper()
	g := newCETGrid(p)
	occ := make([]float64, p.GridCapture*p.GridEmission)
	for k := uint64(0); g.kernelFloats+2*g.nc*g.ne <= maxKernelFloats; k++ {
		af := 1 + float64(k)*1e-6
		g.evolve(occ, af, af, maxSubstep, 2*k+1) // record the key
		g.evolve(occ, af, af, maxSubstep, 2*k+2) // promote and admit it
	}
	return g
}

// benchFleet builds the batched-sweep benchmark population: 64 devices on
// one shared full-cache grid, the shape of a fleet corner whose chips see
// per-tile conditions the cache can no longer admit. Both the batched and
// the per-device variant run in that steady state.
func benchFleet(b *testing.B) []*Device {
	b.Helper()
	p := DefaultParams()
	g := fullCacheGrid(b, p)
	devs := make([]*Device, 64)
	for i := range devs {
		devs[i] = newDeviceOnGrid(p, g)
	}
	return devs
}

// benchCondition returns a stressing condition whose temperature varies with
// the iteration index, so no condition key ever recurs and every substep
// pays for an uncached key somewhere — the regime of a many-core die whose
// per-tile temperatures drift from step to step.
func benchCondition(i int) Condition {
	return Condition{GateVoltage: 1.4, Temp: units.Kelvin(383.15 + float64(i)*1e-9)}
}

// BenchmarkApplyGatedPhase measures one chip-shaped gated core step on the
// system-simulation grid: stress for effUtil·3600 s (two full substeps plus
// a remainder), then rest for the balance of the hour, at a temperature no
// earlier step used, on a private full-cache grid — the per-core wearout
// work of a deep-healing many-core step.
func BenchmarkApplyGatedPhase(b *testing.B) {
	p := DefaultParams().Coarse()
	d := newDeviceOnGrid(p, fullCacheGrid(b, p))
	const effUtil = 0.6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stress := benchCondition(i)
		d.Apply(stress, effUtil*3600)
		d.Apply(Condition{Temp: stress.Temp}, (1-effUtil)*3600)
	}
}

// BenchmarkBatchApply measures one 900 s substep of 64 shared-grid devices
// through the batched sweep under never-repeating conditions: the fused
// kernel is materialised once per substep and amortised across the group.
func BenchmarkBatchApply(b *testing.B) {
	devs := benchFleet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchApply(devs, benchCondition(i), maxSubstep)
	}
	b.ReportMetric(float64(len(devs))*float64(b.N)/b.Elapsed().Seconds(), "device-substeps/s")
}

// BenchmarkBatchApplyPerDevice is BenchmarkBatchApply's baseline: the same
// work through the plain per-device loop, each device paying the full
// separable sweep (axis exponentials plus per-cell rate divisions) itself.
func BenchmarkBatchApplyPerDevice(b *testing.B) {
	devs := benchFleet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := benchCondition(i)
		for _, d := range devs {
			d.Apply(c, maxSubstep)
		}
	}
	b.ReportMetric(float64(len(devs))*float64(b.N)/b.Elapsed().Seconds(), "device-substeps/s")
}

// BenchmarkPopulationApply measures a varied 256-member population
// advancing one substep — the Monte Carlo shape scenario and variation
// studies run.
func BenchmarkPopulationApply(b *testing.B) {
	pop, err := NewPopulation(DefaultParams(), DefaultVariation(), 256, benchRng())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pop.Apply(benchCondition(i), maxSubstep)
	}
}
