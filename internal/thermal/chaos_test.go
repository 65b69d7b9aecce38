package thermal

import (
	"math"
	"testing"

	"deepheal/internal/faultinject"
)

// enableInjector installs a fault plan for the test and restores the
// zero-cost path afterwards.
func enableInjector(t *testing.T, seed uint64, plan map[faultinject.Site]faultinject.Schedule) {
	t.Helper()
	inj, err := faultinject.New(seed, plan)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(inj)
	t.Cleanup(faultinject.Disable)
}

// TestSettleErrorLeavesFieldUntouched checks the thermal failure path the
// simulator runs: an injected divergence fails the steady-state solve
// outright, Settle returns the error and every tile keeps its temperature
// bit for bit.
func TestSettleErrorLeavesFieldUntouched(t *testing.T) {
	g := MustNewGrid(3, 3, DefaultConfig())
	power := make([]float64, 9)
	power[4] = 1.0
	if err := g.Settle(power); err != nil {
		t.Fatal(err)
	}
	before := g.Temperatures()

	enableInjector(t, 1, map[faultinject.Site]faultinject.Schedule{
		faultinject.SiteCGDiverge: {Occurrences: []uint64{1}},
	})
	power[0] = 2.0
	if err := g.Settle(power); err == nil {
		t.Fatal("Settle succeeded although its solve was made to diverge")
	}
	if got := faultinject.Fired(faultinject.SiteCGDiverge); got != 1 {
		t.Fatalf("site fired %d times, want 1", got)
	}
	for i, tt := range g.Temperatures() {
		if math.Float64bits(tt.K()) != math.Float64bits(before[i].K()) {
			t.Fatalf("tile %d changed across a failed settle: %v -> %v", i, before[i], tt)
		}
	}
}
