package thermal

import (
	"math"
	"testing"

	"deepheal/internal/units"
)

func TestFreshGridAtAmbient(t *testing.T) {
	g := MustNewGrid(3, 3, DefaultConfig())
	for i := 0; i < 9; i++ {
		if g.Temperature(i) != DefaultConfig().Ambient {
			t.Fatalf("tile %d not at ambient", i)
		}
	}
}

func TestSteadyStateEnergyBalance(t *testing.T) {
	// In steady state, the total power must equal the total heat flowing
	// to ambient through the vertical paths.
	cfg := DefaultConfig()
	g := MustNewGrid(4, 4, cfg)
	power := make([]float64, 16)
	power[5] = 2.0
	power[10] = 1.0
	temps, err := g.SteadyState(power)
	if err != nil {
		t.Fatal(err)
	}
	var out float64
	for _, tt := range temps {
		out += (tt.K() - cfg.Ambient.K()) / cfg.RVertical
	}
	if math.Abs(out-3.0) > 1e-6 {
		t.Errorf("heat out = %g W, want 3.0 W", out)
	}
}

func TestSteadyStateHotspotAtSource(t *testing.T) {
	g := MustNewGrid(5, 5, DefaultConfig())
	power := make([]float64, 25)
	src := g.Index(2, 2)
	power[src] = 3.0
	if _, err := g.SteadyState(power); err != nil {
		t.Fatal(err)
	}
	idx, temp := g.Hottest()
	if idx != src {
		t.Errorf("hottest tile %d, want %d", idx, src)
	}
	if temp.C() <= DefaultConfig().Ambient.C() {
		t.Error("hotspot not above ambient")
	}
}

func TestNeighbourHeating(t *testing.T) {
	// An idle tile adjacent to a hot one must warm above ambient — the
	// heat-recycling effect the paper exploits for dark-silicon recovery.
	g := MustNewGrid(3, 3, DefaultConfig())
	power := make([]float64, 9)
	power[g.Index(1, 1)] = 4.0
	if _, err := g.SteadyState(power); err != nil {
		t.Fatal(err)
	}
	neighbour := g.Index(1, 0)
	far := g.Index(0, 0) // diagonal, further away
	if g.NeighbourHeat(neighbour) <= 0 {
		t.Error("neighbour tile did not warm up")
	}
	if g.NeighbourHeat(neighbour) <= g.NeighbourHeat(far) {
		t.Errorf("adjacent tile (%.2fK) not warmer than diagonal (%.2fK)",
			g.NeighbourHeat(neighbour), g.NeighbourHeat(far))
	}
}

// TestCoolDownToAmbient: removing all power settles a hot die back to
// ambient.
func TestCoolDownToAmbient(t *testing.T) {
	cfg := DefaultConfig()
	g := MustNewGrid(2, 2, cfg)
	if _, err := g.SteadyState([]float64{2, 2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if err := g.Settle(make([]float64, 4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if math.Abs(g.Temperature(i).K()-cfg.Ambient.K()) > 1e-9 {
			t.Errorf("tile %d did not cool to ambient: %v", i, g.Temperature(i))
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewGrid(0, 3, DefaultConfig()); err == nil {
		t.Error("zero rows accepted")
	}
	bad := DefaultConfig()
	bad.RVertical = 0
	if _, err := NewGrid(2, 2, bad); err == nil {
		t.Error("zero RVertical accepted")
	}
	bad = DefaultConfig()
	bad.HeatCapacity = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative heat capacity accepted")
	}
	bad = DefaultConfig()
	bad.Ambient = units.Kelvin(-1)
	if err := bad.Validate(); err == nil {
		t.Error("invalid ambient accepted")
	}
	g := MustNewGrid(2, 2, DefaultConfig())
	if _, err := g.SteadyState([]float64{1}); err == nil {
		t.Error("wrong power map size accepted")
	}
}

func TestIndexing(t *testing.T) {
	g := MustNewGrid(3, 4, DefaultConfig())
	if g.Rows() != 3 || g.Cols() != 4 {
		t.Error("dims wrong")
	}
	if g.Index(2, 3) != 11 {
		t.Errorf("Index(2,3) = %d", g.Index(2, 3))
	}
	if len(g.Temperatures()) != 12 {
		t.Error("Temperatures length wrong")
	}
}
