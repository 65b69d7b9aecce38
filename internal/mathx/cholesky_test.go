package mathx

import (
	"errors"
	"math"
	"strings"
	"testing"

	"deepheal/internal/rngx"
)

// laplacian2D builds the SPD 5-point thermal-style operator on a rows×cols
// grid: lateral conductance 1 between neighbours, vertical conductance 0.125
// to ambient on the diagonal — the same structure thermal.Grid assembles.
func laplacian2D(rows, cols int) *CSR {
	n := rows * cols
	var entries []Coord
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			diag := 0.125
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nr, nc := r+d[0], c+d[1]
				if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
					continue
				}
				entries = append(entries, Coord{Row: i, Col: nr*cols + nc, Val: -1})
				diag++
			}
			entries = append(entries, Coord{Row: i, Col: i, Val: diag})
		}
	}
	return NewCSR(n, entries)
}

// choleskyVsCG solves one grid operator both ways and requires agreement
// within tol — the issue's differential criterion for the factored thermal
// solve.
func choleskyVsCG(t *testing.T, rows, cols int, tol float64) {
	t.Helper()
	m := laplacian2D(rows, cols)
	n := m.N()
	rng := rngx.New(7)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.Uniform(-2, 2)
	}
	chol, err := NewCholesky(m)
	if err != nil {
		t.Fatalf("factorization of the %dx%d grid operator failed: %v", rows, cols, err)
	}
	xd, err := chol.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := NewCGSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	xi, _, err := cg.Solve(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	scale := Norm2(xi)
	for i := range xd {
		if math.Abs(xd[i]-xi[i]) > tol*scale {
			t.Fatalf("x[%d]: direct %.15g vs CG %.15g (|Δ| %.3g > %.3g·‖x‖)",
				i, xd[i], xi[i], math.Abs(xd[i]-xi[i]), tol)
		}
	}
	// The direct residual must meet the criterion CG is held to.
	ax := make([]float64, n)
	m.MulVec(xd, ax)
	for i := range ax {
		ax[i] = b[i] - ax[i]
	}
	if res := Norm2(ax) / Norm2(b); res > 1e-10 {
		t.Fatalf("direct residual %.3g exceeds 1e-10", res)
	}
}

func TestCholeskyMatchesCG8x8(t *testing.T)   { choleskyVsCG(t, 8, 8, 1e-10) }
func TestCholeskyMatchesCG64x64(t *testing.T) { choleskyVsCG(t, 64, 64, 1e-10) }

func TestCholeskyExactOnKnownSolution(t *testing.T) {
	m := laplacian2D(8, 8)
	want := make([]float64, m.N())
	for i := range want {
		want[i] = float64(i%5) - 2
	}
	b := make([]float64, m.N())
	m.MulVec(want, b)
	chol, err := NewCholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	x, err := chol.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !AlmostEqual(x[i], want[i], 1e-10) {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	cases := map[string]*CSR{
		"indefinite": NewCSR(2, []Coord{
			{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: -1},
		}),
		"asymmetric": NewCSR(2, []Coord{
			{Row: 0, Col: 0, Val: 2}, {Row: 0, Col: 1, Val: -1},
			{Row: 1, Col: 1, Val: 2},
		}),
		"asymmetric-values": NewCSR(2, []Coord{
			{Row: 0, Col: 0, Val: 2}, {Row: 0, Col: 1, Val: -1},
			{Row: 1, Col: 0, Val: -0.5}, {Row: 1, Col: 1, Val: 2},
		}),
	}
	for name, m := range cases {
		if _, err := NewCholesky(m); !errors.Is(err, ErrNotSPD) {
			t.Errorf("%s: err = %v, want ErrNotSPD", name, err)
		}
	}
}

// hilbert builds the n×n Hilbert matrix H[i][j] = 1/(i+j+1): symmetric
// positive definite in exact arithmetic, with a condition number near 1e16
// at n = 12 (the factorization still accepts it; at n = 14 a pivot rounds
// to a non-positive value).
func hilbert(n int) *CSR {
	var entries []Coord
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			entries = append(entries, Coord{Row: i, Col: j, Val: 1 / float64(i+j+1)})
		}
	}
	return NewCSR(n, entries)
}

// TestCholeskyResidualMissIsAnError produces the residual check's failure:
// the factorization accepts an ill-conditioned SPD matrix, its triangular
// solve misses the residual bound, and Solve reports an error instead of
// handing back the inaccurate solution.
func TestCholeskyResidualMissIsAnError(t *testing.T) {
	m := hilbert(12)
	chol, err := NewCholesky(m)
	if err != nil {
		t.Fatalf("factorization refused the Hilbert matrix: %v", err)
	}
	// An alternating rhs leans on the smallest eigenvalues: the residual
	// lands near 0.08, four orders of magnitude over the bound.
	b := make([]float64, m.N())
	for i := range b {
		b[i] = float64(1 - 2*(i%2))
	}
	x, err := chol.Solve(b)
	if err == nil {
		t.Fatalf("ill-conditioned solve accepted (residual %.3g)", chol.residual(b))
	}
	if x != nil {
		t.Error("failed solve returned a solution")
	}
	if !strings.Contains(err.Error(), "residual") {
		t.Errorf("err = %v, want a residual miss", err)
	}
}

func TestCholeskyRhsLengthChecked(t *testing.T) {
	chol, err := NewCholesky(laplacian2D(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chol.Solve(make([]float64, 3)); err == nil {
		t.Fatal("wrong-length rhs accepted")
	}
}
