package scenario

import (
	"testing"
)

// BenchmarkScenarioStep measures one duty step of each registered
// structure — the inner loop of every zoo experiment and of the Monte
// Carlo sweeps the distributed executor fans out. Tracked by the CI
// benchmark gate (.github/bench-ab.sh), so a regression in the BatchApply
// bucketing or the kernel cache shows up here before it shows up as a slow
// campaign.
func BenchmarkScenarioStep(b *testing.B) {
	for _, name := range Names() {
		d, _ := Lookup(name)
		b.Run(name, func(b *testing.B) {
			in, err := New(d, 1)
			if err != nil {
				b.Fatal(err)
			}
			defer in.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.step(i)
			}
		})
	}
}
