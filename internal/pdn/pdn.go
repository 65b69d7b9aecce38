// Package pdn models an on-chip power-delivery network: a rows×cols mesh of
// metal segments fed from C4-bump pads, with block load currents drawn at
// the mesh nodes. It solves the IR-drop problem with one held
// Jacobi-preconditioned conjugate-gradient solver per grid, warm-started
// from the previous solution, and exposes per-segment current densities —
// the stress input for the electromigration models. Under the assist
// circuitry's EM Active Recovery mode all segment currents reverse at
// unchanged magnitude (the paper's Fig. 8/9), which callers express by
// negating the load map's sign.
package pdn

import (
	"errors"
	"fmt"
	"math"

	"deepheal/internal/mathx"
	"deepheal/internal/units"
)

// Config describes the power grid.
type Config struct {
	Rows, Cols int
	// SegOhm is the resistance of one mesh segment.
	SegOhm float64
	// VDD is the pad voltage.
	VDD float64
	// Pads lists flat node indices held at VDD by C4 bumps. Empty means
	// the four corners.
	Pads []int
	// WireWidthM and WireThickM give the segment cross-section used to
	// convert branch currents into current densities.
	WireWidthM, WireThickM float64
}

// DefaultConfig returns a 8×8 local grid with corner pads, sized like lower
// metal-layer rails (0.2 µm × 0.4 µm) at 1 Ω per segment.
func DefaultConfig() Config {
	return Config{
		Rows:       8,
		Cols:       8,
		SegOhm:     1.0,
		VDD:        1.0,
		WireWidthM: 0.4e-6,
		WireThickM: 0.2e-6,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Rows < 2 || c.Cols < 2:
		return fmt.Errorf("pdn: grid %dx%d too small", c.Rows, c.Cols)
	case c.SegOhm <= 0:
		return errors.New("pdn: segment resistance must be positive")
	case c.VDD <= 0:
		return errors.New("pdn: VDD must be positive")
	case c.WireWidthM <= 0 || c.WireThickM <= 0:
		return errors.New("pdn: wire cross-section must be positive")
	}
	n := c.Rows * c.Cols
	for _, p := range c.Pads {
		if p < 0 || p >= n {
			return fmt.Errorf("pdn: pad index %d outside grid", p)
		}
	}
	return nil
}

// pads returns the effective pad set (corners when unspecified).
func (c Config) pads() []int {
	if len(c.Pads) > 0 {
		return c.Pads
	}
	last := c.Rows*c.Cols - 1
	return []int{0, c.Cols - 1, last - (c.Cols - 1), last}
}

// Edge is one mesh segment between two node indices (A < B scan order).
type Edge struct {
	A, B       int
	Horizontal bool
}

// Grid is an assembled power grid.
type Grid struct {
	cfg    Config
	edges  []Edge
	isPad  []bool
	unkIdx []int           // node -> unknown index, -1 for pads
	unk    []int           // unknown index -> node
	cg     *mathx.CGSolver // over the reduced Laplacian; not safe for concurrent Solve
	warm   []float64       // the previous solution, the next solve's start
}

// New builds the grid, assembles the reduced Laplacian over its non-pad
// nodes and prepares the CG solver that every Solve reuses.
func New(cfg Config) (*Grid, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Rows * cfg.Cols
	g := &Grid{cfg: cfg, isPad: make([]bool, n), unkIdx: make([]int, n)}
	for _, p := range cfg.pads() {
		g.isPad[p] = true
	}
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			i := r*cfg.Cols + c
			if c+1 < cfg.Cols {
				g.edges = append(g.edges, Edge{A: i, B: i + 1, Horizontal: true})
			}
			if r+1 < cfg.Rows {
				g.edges = append(g.edges, Edge{A: i, B: i + cfg.Cols})
			}
		}
	}
	for i := range g.unkIdx {
		g.unkIdx[i] = -1
	}
	for i := 0; i < n; i++ {
		if !g.isPad[i] {
			g.unkIdx[i] = len(g.unk)
			g.unk = append(g.unk, i)
		}
	}
	if len(g.unk) == 0 {
		return nil, errors.New("pdn: every node is a pad")
	}
	// Assemble the reduced Laplacian over unknown nodes.
	gSeg := 1 / cfg.SegOhm
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
	cg, err := mathx.NewCGSolver(mathx.NewCSR(len(g.unk), entries))
	if err != nil {
		return nil, fmt.Errorf("pdn: %w", err)
	}
	g.cg = cg
	g.warm = make([]float64, len(g.unk))
	for i := range g.warm {
		g.warm[i] = cfg.VDD
	}
	return g, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Grid {
	g, err := New(cfg)
	if err != nil {
		panic(fmt.Sprintf("pdn: %v", err))
	}
	return g
}

// Config returns the grid configuration.
func (g *Grid) Config() Config { return g.cfg }

// Edges returns the mesh segments (shared slice; do not modify).
func (g *Grid) Edges() []Edge { return g.edges }

// NumNodes returns the node count.
func (g *Grid) NumNodes() int { return g.cfg.Rows * g.cfg.Cols }

// Solution holds one IR-drop solve.
type Solution struct {
	// NodeV is the voltage at every node.
	NodeV []float64
	// EdgeI is the branch current through each edge, positive A→B.
	EdgeI []float64
	vdd   float64
}

// Solve computes node voltages and branch currents for the given per-node
// load currents (amps drawn to the logic; negative injects current, which is
// how the assist circuitry's reverse mode appears at grid level).
func (g *Grid) Solve(load []float64) (*Solution, error) {
	n := g.NumNodes()
	if len(load) != n {
		return nil, fmt.Errorf("pdn: load map has %d nodes, want %d", len(load), n)
	}
	gSeg := 1 / g.cfg.SegOhm
	rhs := make([]float64, len(g.unk))
	for u, node := range g.unk {
		rhs[u] = -load[node]
	}
	// Pad coupling moves to the RHS.
	for _, e := range g.edges {
		ua, ub := g.unkIdx[e.A], g.unkIdx[e.B]
		if ua >= 0 && ub < 0 {
			rhs[ua] += gSeg * g.cfg.VDD
		}
		if ub >= 0 && ua < 0 {
			rhs[ub] += gSeg * g.cfg.VDD
		}
	}
	x, _, err := g.cg.Solve(rhs, g.warm)
	if err != nil {
		return nil, fmt.Errorf("pdn: %w", err)
	}
	copy(g.warm, x)
	sol := &Solution{NodeV: make([]float64, n), EdgeI: make([]float64, len(g.edges)), vdd: g.cfg.VDD}
	for i := 0; i < n; i++ {
		if g.isPad[i] {
			sol.NodeV[i] = g.cfg.VDD
		} else {
			sol.NodeV[i] = x[g.unkIdx[i]]
		}
	}
	for k, e := range g.edges {
		sol.EdgeI[k] = (sol.NodeV[e.A] - sol.NodeV[e.B]) * gSeg
	}
	return sol, nil
}

// CurrentDensity converts a branch current into a current density using the
// configured wire cross-section.
func (g *Grid) CurrentDensity(amps float64) units.CurrentDensity {
	return units.CurrentDensity(amps / (g.cfg.WireWidthM * g.cfg.WireThickM))
}

// WorstDrop returns the largest IR drop below VDD anywhere on the grid.
func (s *Solution) WorstDrop() float64 {
	worst := 0.0
	for _, v := range s.NodeV {
		if d := s.vdd - v; d > worst {
			worst = d
		}
	}
	return worst
}

// MaxEdgeCurrent returns the largest branch current magnitude and its edge
// index.
func (s *Solution) MaxEdgeCurrent() (int, float64) {
	idx, best := 0, 0.0
	for k, i := range s.EdgeI {
		if a := math.Abs(i); a > best {
			idx, best = k, a
		}
	}
	return idx, best
}
