package mathx

import (
	"testing"

	"deepheal/internal/rngx"
)

// laplacian1D builds the standard SPD 1-D Laplacian with Dirichlet ends.
func laplacian1D(n int) *CSR {
	var entries []Coord
	for i := 0; i < n; i++ {
		entries = append(entries, Coord{Row: i, Col: i, Val: 2})
		if i > 0 {
			entries = append(entries, Coord{Row: i, Col: i - 1, Val: -1})
		}
		if i < n-1 {
			entries = append(entries, Coord{Row: i, Col: i + 1, Val: -1})
		}
	}
	return NewCSR(n, entries)
}

func TestCSRDuplicatesSummed(t *testing.T) {
	m := NewCSR(2, []Coord{
		{Row: 0, Col: 0, Val: 1},
		{Row: 0, Col: 0, Val: 2},
		{Row: 1, Col: 1, Val: 5},
	})
	y := make([]float64, 2)
	m.MulVec([]float64{1, 1}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Errorf("MulVec = %v, want [3 5]", y)
	}
}

// solveCG solves m·x = b through a CGSolver held by the caller's test, the
// way the PDN holds one per grid.
func solveCG(t *testing.T, s *CGSolver, b, x0 []float64) ([]float64, float64) {
	t.Helper()
	x, res, err := s.Solve(b, x0)
	if err != nil {
		t.Fatalf("CG failed (res %g): %v", res, err)
	}
	return x, res
}

// mustCG builds a held CGSolver for m.
func mustCG(t *testing.T, m *CSR) *CGSolver {
	t.Helper()
	s, err := NewCGSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSolveCGLaplacian(t *testing.T) {
	n := 64
	m := laplacian1D(n)
	// Pick a known solution, build rhs from it, recover it.
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i%7) - 3
	}
	b := make([]float64, n)
	m.MulVec(want, b)
	got, _ := solveCG(t, mustCG(t, m), b, nil)
	for i := range got {
		if !AlmostEqual(got[i], want[i], 1e-6) {
			t.Fatalf("x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestSolveCGZeroRHS(t *testing.T) {
	m := laplacian1D(8)
	x, res := solveCG(t, mustCG(t, m), make([]float64, 8), nil)
	if res != 0 {
		t.Errorf("residual = %g, want 0", res)
	}
	for i, v := range x {
		if v != 0 {
			t.Errorf("x[%d] = %g, want 0", i, v)
		}
	}
}

func TestSolveCGWarmStart(t *testing.T) {
	n := 32
	m := laplacian1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	// The held solver returns its own scratch, so the cold answer is copied
	// out before it seeds the warm solve on the same solver.
	s := mustCG(t, m)
	x, _ := solveCG(t, s, b, nil)
	cold := append([]float64(nil), x...)
	warm, _ := solveCG(t, s, b, cold)
	for i := range warm {
		if !AlmostEqual(warm[i], cold[i], 1e-6) {
			t.Fatalf("warm start diverged at %d: %g vs %g", i, warm[i], cold[i])
		}
	}
}

func TestSolveCGRandomSPD(t *testing.T) {
	// Random diagonally dominant symmetric matrices are SPD; CG must solve
	// them to the requested residual.
	rng := rngx.New(11)
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.IntN(40)
		var entries []Coord
		for i := 0; i < n; i++ {
			entries = append(entries, Coord{Row: i, Col: i, Val: float64(n) + rng.Uniform(0, 2)})
			if i < n-1 {
				v := rng.Uniform(-1, 1)
				entries = append(entries, Coord{Row: i, Col: i + 1, Val: v}, Coord{Row: i + 1, Col: i, Val: v})
			}
		}
		m := NewCSR(n, entries)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Uniform(-3, 3)
		}
		x, _ := solveCG(t, mustCG(t, m), b, nil)
		ax := make([]float64, n)
		m.MulVec(x, ax)
		for i := range ax {
			if !AlmostEqual(ax[i], b[i], 1e-6) {
				t.Fatalf("trial %d: residual at %d", trial, i)
			}
		}
	}
}

func TestSolveCGSingularDiagonal(t *testing.T) {
	m := NewCSR(2, []Coord{{Row: 0, Col: 0, Val: 1}})
	if _, err := NewCGSolver(m); err == nil {
		t.Fatal("expected error for zero diagonal")
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
	if !AlmostEqual(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Error("Norm2 wrong")
	}
}
