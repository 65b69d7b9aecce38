package core

import (
	"context"
	"fmt"
	"testing"

	"deepheal/internal/obs"
)

// BenchmarkSimulatorStep measures one simulation step at growing die sizes,
// serial versus sharded wearout stepping. The horizon is set far beyond any
// plausible b.N so the simulator never runs out of steps mid-benchmark.
func BenchmarkSimulatorStep(b *testing.B) {
	for _, size := range []struct{ rows, cols int }{{4, 4}, {8, 8}, {16, 16}} {
		for _, mode := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"sharded", 0}} {
			b.Run(fmt.Sprintf("%dx%d/%s", size.rows, size.cols, mode.name), func(b *testing.B) {
				cfg := ConfigForGrid(size.rows, size.cols)
				cfg.Steps = 1 << 30
				sim, err := NewSimulator(cfg, DefaultDeepHealing(), WithWorkers(mode.workers))
				if err != nil {
					b.Fatal(err)
				}
				ctx := context.Background()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sim.RunSteps(ctx, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSimulatorStepMetrics is BenchmarkSimulatorStep's 8x8 serial case
// with the full observability stack live. Comparing it against the plain
// benchmark bounds the enabled-metrics overhead (the acceptance budget is
// 5%); the instruments are a handful of uncontended atomic adds per step, so
// the two should be within noise of each other.
func BenchmarkSimulatorStepMetrics(b *testing.B) {
	EnableMetrics(obs.NewRegistry())
	defer EnableMetrics(nil)
	b.Run("8x8/serial", func(b *testing.B) {
		cfg := ConfigForGrid(8, 8)
		cfg.Steps = 1 << 30
		sim, err := NewSimulator(cfg, DefaultDeepHealing(), WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sim.RunSteps(ctx, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
