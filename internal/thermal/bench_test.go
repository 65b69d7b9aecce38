package thermal

import "testing"

// BenchmarkSteadyState measures one warm-started steady-state solve of a
// 4×4 tile grid (the system simulator's per-step pattern).
func BenchmarkSteadyState(b *testing.B) {
	g := MustNewGrid(4, 4, DefaultConfig())
	power := make([]float64, 16)
	for i := range power {
		power[i] = 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.SteadyState(power); err != nil {
			b.Fatal(err)
		}
	}
}
