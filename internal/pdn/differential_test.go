package pdn

import (
	"math"
	"testing"

	"deepheal/internal/mathx"
	"deepheal/internal/rngx"
)

// referenceGrid replays the per-call implementation: the reduced Laplacian
// is assembled and a fresh CGSolver built on every solve, warm-started from
// the reference's own copy of the previous solution. The production Grid
// holds one solver for its lifetime; both must produce bit-identical node
// voltages and branch currents, because the assembly order, the Jacobi
// inverse and the iteration arithmetic are unchanged — only their reuse is.
type referenceGrid struct {
	g    *Grid // topology holder; solves below never touch its held solver
	warm []float64
}

func newReference(cfg Config) *referenceGrid {
	g := MustNew(cfg)
	warm := make([]float64, len(g.unk))
	for i := range warm {
		warm[i] = cfg.VDD
	}
	return &referenceGrid{g: g, warm: warm}
}

func (r *referenceGrid) laplacian() *mathx.CSR {
	g := r.g
	gSeg := 1 / g.cfg.SegOhm
	var entries []mathx.Coord
	diag := make([]float64, len(g.unk))
	for _, e := range g.edges {
		ua, ub := g.unkIdx[e.A], g.unkIdx[e.B]
		if ua >= 0 {
			diag[ua] += gSeg
		}
		if ub >= 0 {
			diag[ub] += gSeg
		}
		if ua >= 0 && ub >= 0 {
			entries = append(entries,
				mathx.Coord{Row: ua, Col: ub, Val: -gSeg},
				mathx.Coord{Row: ub, Col: ua, Val: -gSeg})
		}
	}
	for i, d := range diag {
		entries = append(entries, mathx.Coord{Row: i, Col: i, Val: d})
	}
	return mathx.NewCSR(len(g.unk), entries)
}

func (r *referenceGrid) solve(load []float64) ([]float64, []float64, error) {
	g := r.g
	gSeg := 1 / g.cfg.SegOhm
	rhs := make([]float64, len(g.unk))
	for u, node := range g.unk {
		rhs[u] = -load[node]
	}
	for _, e := range g.edges {
		ua, ub := g.unkIdx[e.A], g.unkIdx[e.B]
		if ua >= 0 && ub < 0 {
			rhs[ua] += gSeg * g.cfg.VDD
		}
		if ub >= 0 && ua < 0 {
			rhs[ub] += gSeg * g.cfg.VDD
		}
	}
	cg, err := mathx.NewCGSolver(r.laplacian())
	if err != nil {
		return nil, nil, err
	}
	x, _, err := cg.Solve(rhs, r.warm)
	if err != nil {
		return nil, nil, err
	}
	copy(r.warm, x)
	nodeV := make([]float64, g.NumNodes())
	for i := range nodeV {
		if g.isPad[i] {
			nodeV[i] = g.cfg.VDD
		} else {
			nodeV[i] = x[g.unkIdx[i]]
		}
	}
	edgeI := make([]float64, len(g.edges))
	for k, e := range g.edges {
		edgeI[k] = (nodeV[e.A] - nodeV[e.B]) * gSeg
	}
	return nodeV, edgeI, nil
}

// TestHeldSolverMatchesReference drives the production grid and the
// per-call reference through identical histories of random load maps —
// including reverse-mode (negated) maps, as EM Active Recovery applies
// them — and demands bit-identical voltages and currents at every step.
func TestHeldSolverMatchesReference(t *testing.T) {
	rng := rngx.New(2025)
	custom := DefaultConfig()
	custom.Rows, custom.Cols, custom.Pads = 3, 5, []int{2, 12}
	small := DefaultConfig()
	small.Rows, small.Cols = 2, 3
	for name, cfg := range map[string]Config{"default": DefaultConfig(), "3x5-two-pads": custom, "2x3": small} {
		held := MustNew(cfg)
		ref := newReference(cfg)
		load := make([]float64, held.NumNodes())
		for step := 0; step < 40; step++ {
			sign := 1.0
			if step%5 == 4 {
				sign = -1
			}
			for i := range load {
				load[i] = sign * rng.Uniform(0, 0.01)
			}
			sol, err := held.Solve(load)
			refV, refI, refErr := ref.solve(load)
			if err != nil || refErr != nil {
				t.Fatalf("%s step %d: held err %v, reference err %v", name, step, err, refErr)
			}
			for i := range refV {
				if math.Float64bits(sol.NodeV[i]) != math.Float64bits(refV[i]) {
					t.Fatalf("%s step %d: node %d held %v != reference %v", name, step, i, sol.NodeV[i], refV[i])
				}
			}
			for k := range refI {
				if math.Float64bits(sol.EdgeI[k]) != math.Float64bits(refI[k]) {
					t.Fatalf("%s step %d: edge %d held %v != reference %v", name, step, k, sol.EdgeI[k], refI[k])
				}
			}
		}
	}
}
