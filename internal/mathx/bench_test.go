package mathx

import "testing"

// BenchmarkSolveTridiag measures the Thomas solve backing the Korhonen
// stepper (101 unknowns).
func BenchmarkSolveTridiag(b *testing.B) {
	n := 101
	lower := make([]float64, n)
	diag := make([]float64, n)
	upper := make([]float64, n)
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = 4
		lower[i] = -1
		upper[i] = -1
		rhs[i] = float64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveTridiag(lower, diag, upper, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveCG measures a held preconditioned CG solver, the PDN's
// solve path, on a 64-node Laplacian.
func BenchmarkSolveCG(b *testing.B) {
	m := laplacian1D(64)
	cg, err := NewCGSolver(m)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, 64)
	for i := range rhs {
		rhs[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cg.Solve(rhs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// thermal64RHS builds a smoothly varying right-hand side on the 64×64 grid —
// a power map, not a uniform vector, so CG can't converge unrealistically
// fast off a trivially structured residual.
func thermal64RHS() []float64 {
	rhs := make([]float64, 64*64)
	for i := range rhs {
		r, c := i/64, i%64
		rhs[i] = 0.5 + 0.1*float64(r%8) + 0.05*float64(c%16)
	}
	return rhs
}

// BenchmarkCholeskySolve measures a triangular solve through the envelope
// factor of the 64×64 thermal grid operator — the steady-state path after
// the one-time factorization.
func BenchmarkCholeskySolve(b *testing.B) {
	m := laplacian2D(64, 64)
	chol, err := NewCholesky(m)
	if err != nil {
		b.Fatal(err)
	}
	rhs := thermal64RHS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chol.Solve(rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPersistentCG64 is the iterative baseline BenchmarkCholeskySolve
// replaces: a persistent Jacobi-CG solver on the same 64×64 operator and
// right-hand side, cold-started each solve (matching the direct solve, which
// takes no warm start).
func BenchmarkPersistentCG64(b *testing.B) {
	m := laplacian2D(64, 64)
	cg, err := NewCGSolver(m)
	if err != nil {
		b.Fatal(err)
	}
	rhs := thermal64RHS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cg.Solve(rhs, nil); err != nil {
			b.Fatal(err)
		}
	}
}
