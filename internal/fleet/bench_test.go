package fleet

import (
	"context"
	"fmt"
	"testing"

	"deepheal/internal/bti"
	"deepheal/internal/obs"
)

// BenchmarkFleetStep is the issue's scaling target: 1,000 registered chips
// spread over 4 process corners, stepped as batches through the shared
// pool. After warm-up (registration builds at most one CET grid per
// distinct Params) the steady state allocates no new BTI grids at all —
// asserted here, not just measured.
func BenchmarkFleetStep(b *testing.B) {
	m := NewManager(Options{})
	defer m.Close()
	corners := CornerNames()
	const chips = 1000
	for i := 0; i < chips; i++ {
		spec := ChipSpec{
			ID:     fmt.Sprintf("chip-%04d", i),
			Steps:  1 << 20, // effectively unbounded horizon
			Corner: corners[i%len(corners)],
			Seed:   int64(i + 1),
		}
		if _, err := m.Register(spec); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := m.StepAll(context.Background(), 1); err != nil {
		b.Fatal(err) // warm-up batch
	}
	builds := bti.GridCacheStats().Builds

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.StepAll(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := bti.GridCacheStats().Builds - builds; got != 0 {
		b.Fatalf("steady-state stepping built %d new BTI grids, want 0", got)
	}
	b.ReportMetric(float64(chips*b.N)/b.Elapsed().Seconds(), "chip-steps/s")
}

// BenchmarkFleetChurn measures the residency budget's suspend/rehydrate
// path: 64 chips with room for 16, so every batch rehydrates the 48
// suspended chips as it steps them and suspends 48 again afterwards.
func BenchmarkFleetChurn(b *testing.B) {
	EnableMetrics(obs.NewRegistry())
	defer EnableMetrics(nil)
	const chips, budget = 64, 16
	m := NewManager(Options{Workers: 2, MaxResident: budget})
	defer m.Close()
	corners := CornerNames()
	for i := 0; i < chips; i++ {
		spec := ChipSpec{
			ID:     fmt.Sprintf("chip-%02d", i),
			Steps:  1 << 20,
			Corner: corners[i%len(corners)],
			Seed:   int64(i + 1),
		}
		if _, err := m.Register(spec); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := m.StepAll(context.Background(), 1); err != nil {
		b.Fatal(err) // warm-up batch
	}
	suspends := metSuspends.Value()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.StepAll(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	resident := 0
	for _, st := range m.List() {
		if !st.Suspended {
			resident++
		}
	}
	if resident != budget {
		b.Fatalf("%d chips resident after the batches, want the budget %d", resident, budget)
	}
	b.ReportMetric(float64(metSuspends.Value()-suspends)/b.Elapsed().Seconds(), "suspends/s")
}
