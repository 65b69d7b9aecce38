package thermal

import (
	"testing"

	"deepheal/internal/mathx"
	"deepheal/internal/rngx"
	"deepheal/internal/units"
)

// referenceGrid replays an uncached implementation: the operator is
// assembled and factored from scratch on every call and every solve
// allocates fresh buffers. The production Grid assembles and factors the
// conductance once; both must produce bit-identical temperatures, because
// the assembly order and the solve arithmetic are unchanged — only their
// reuse is.
type referenceGrid struct {
	g *Grid // state holder; solves below never touch its cached operators
}

func (r *referenceGrid) conductance() *mathx.CSR {
	g := r.g
	n := g.rows * g.cols
	gl := 1 / g.cfg.RLateral
	gv := 1 / g.cfg.RVertical
	var entries []mathx.Coord
	for row := 0; row < g.rows; row++ {
		for col := 0; col < g.cols; col++ {
			i := g.Index(row, col)
			diag := gv
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nr, nc := row+d[0], col+d[1]
				if nr < 0 || nr >= g.rows || nc < 0 || nc >= g.cols {
					continue
				}
				entries = append(entries, mathx.Coord{Row: i, Col: g.Index(nr, nc), Val: -gl})
				diag += gl
			}
			entries = append(entries, mathx.Coord{Row: i, Col: i, Val: diag})
		}
	}
	return mathx.NewCSR(n, entries)
}

func (r *referenceGrid) steadyState(power []float64) error {
	g := r.g
	n := g.rows * g.cols
	rhs := make([]float64, n)
	copy(rhs, power)
	sol, err := mathx.NewCholesky(r.conductance())
	if err != nil {
		return err
	}
	rise, err := sol.Solve(rhs)
	if err != nil {
		return err
	}
	for i := range g.temps {
		g.temps[i] = g.cfg.Ambient.K() + rise[i]
	}
	return nil
}

// TestCachedOperatorsMatchReference drives the cached production grid and
// the per-call reference through identical histories of random power maps
// and demands bit-identical temperatures at every point.
func TestCachedOperatorsMatchReference(t *testing.T) {
	rng := rngx.New(2025)
	for _, size := range []struct{ rows, cols int }{{1, 1}, {3, 5}, {8, 8}} {
		cached := MustNewGrid(size.rows, size.cols, DefaultConfig())
		ref := &referenceGrid{g: MustNewGrid(size.rows, size.cols, DefaultConfig())}
		n := size.rows * size.cols
		power := make([]float64, n)
		for iter := 0; iter < 40; iter++ {
			for i := range power {
				power[i] = rng.Uniform(0, 8)
			}
			err, refErr := cached.Settle(power), ref.steadyState(power)
			if err != nil || refErr != nil {
				t.Fatalf("%dx%d iter %d: cached err %v, reference err %v", size.rows, size.cols, iter, err, refErr)
			}
			for i := range cached.temps {
				if cached.temps[i] != ref.g.temps[i] {
					t.Fatalf("%dx%d iter %d: tile %d cached %v != reference %v",
						size.rows, size.cols, iter, i, cached.temps[i], ref.g.temps[i])
				}
			}
		}
	}
}

// TestTemperaturesInto checks the allocation-free observation path: the
// returned slice must reuse the caller's buffer when it is large enough and
// must match Temperatures exactly.
func TestTemperaturesInto(t *testing.T) {
	g := MustNewGrid(3, 3, DefaultConfig())
	power := make([]float64, 9)
	power[4] = 5
	if err := g.Settle(power); err != nil {
		t.Fatal(err)
	}
	want := g.Temperatures()
	buf := make([]units.Temperature, 0, 16)
	got := g.TemperaturesInto(buf)
	if &got[0] != &buf[:1][0] {
		t.Fatal("TemperaturesInto reallocated a buffer with sufficient capacity")
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tile %d: %v != %v", i, got[i], want[i])
		}
	}
	if short := g.TemperaturesInto(make([]units.Temperature, 2)); len(short) != len(want) {
		t.Fatalf("short-buffer fill returned %d tiles, want %d", len(short), len(want))
	}
}
