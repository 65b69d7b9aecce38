// Package thermal provides a tile-grid thermal model of a die: every
// floorplan tile exchanges heat laterally with its neighbours and vertically
// with the ambient through the package. It solves for the steady-state
// field of a power map through a sparse Cholesky factor of the conductance
// matrix, built once per grid, and is the substrate behind the paper's
// observation that heat from neighbouring active blocks can be recycled to
// accelerate the recovery of idle blocks (Fig. 12a).
package thermal

import (
	"errors"
	"fmt"

	"deepheal/internal/mathx"
	"deepheal/internal/units"
)

// Config describes the thermal network of one tile.
type Config struct {
	// RVertical is the tile→ambient thermal resistance (K/W).
	RVertical float64
	// RLateral is the tile→tile thermal resistance (K/W).
	RLateral float64
	// HeatCapacity is the tile heat capacity (J/K). The steady-state solve
	// does not read it; Validate and the snapshot frame still carry it.
	HeatCapacity float64
	// Ambient is the package/heatsink reference temperature.
	Ambient units.Temperature
}

// DefaultConfig returns plausible constants for a few-mm² tile in a
// consumer package.
func DefaultConfig() Config {
	return Config{
		RVertical:    8.0,
		RLateral:     3.0,
		HeatCapacity: 0.02,
		Ambient:      units.Celsius(45),
	}
}

// Validate reports whether the configuration is physical.
func (c Config) Validate() error {
	switch {
	case c.RVertical <= 0 || c.RLateral <= 0:
		return errors.New("thermal: resistances must be positive")
	case c.HeatCapacity <= 0:
		return errors.New("thermal: heat capacity must be positive")
	case !c.Ambient.Valid():
		return fmt.Errorf("thermal: invalid ambient %v", c.Ambient)
	}
	return nil
}

// Grid is a rows×cols tile thermal network.
//
// The conductance matrix G depends only on cfg, so it is assembled and
// factored (sparse envelope Cholesky) once at construction; every solve is
// then two triangular sweeps and a residual check into the factor's own
// scratch, with no iteration and no allocation.
type Grid struct {
	rows, cols int
	cfg        Config
	ambientK   float64   // cfg.Ambient.K(), hoisted out of the hot loops
	temps      []float64 // kelvin

	steady *mathx.CholeskySolver // factor of the conductance G
}

// NewGrid builds a grid at ambient temperature.
func NewGrid(rows, cols int, cfg Config) (*Grid, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("thermal: grid %dx%d invalid", rows, cols)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := rows * cols
	g := &Grid{
		rows: rows, cols: cols, cfg: cfg,
		ambientK: cfg.Ambient.K(),
		temps:    make([]float64, n),
	}
	for i := range g.temps {
		g.temps[i] = g.ambientK
	}
	steady, err := mathx.NewCholesky(g.operator())
	if err != nil {
		return nil, fmt.Errorf("thermal: %w", err)
	}
	g.steady = steady
	return g, nil
}

// MustNewGrid is NewGrid for known-good arguments; it panics on error.
func MustNewGrid(rows, cols int, cfg Config) *Grid {
	g, err := NewGrid(rows, cols, cfg)
	if err != nil {
		panic(fmt.Sprintf("thermal: %v", err))
	}
	return g
}

// Rows and Cols report the grid dimensions.
func (g *Grid) Rows() int { return g.rows }

// Cols reports the number of grid columns.
func (g *Grid) Cols() int { return g.cols }

// Index converts a (row, col) tile coordinate to a flat index.
func (g *Grid) Index(row, col int) int { return row*g.cols + col }

// Temperature returns the current temperature of the tile at flat index i.
func (g *Grid) Temperature(i int) units.Temperature {
	return units.Kelvin(g.temps[i])
}

// Temperatures returns a copy of all tile temperatures.
func (g *Grid) Temperatures() []units.Temperature {
	return g.TemperaturesInto(nil)
}

// TemperaturesInto fills dst with all tile temperatures, growing it only if
// its capacity is too small, and returns it. Observation loops that sample
// the field every step should retain the returned slice to avoid a per-step
// allocation.
func (g *Grid) TemperaturesInto(dst []units.Temperature) []units.Temperature {
	if cap(dst) < len(g.temps) {
		dst = make([]units.Temperature, len(g.temps))
	}
	dst = dst[:len(g.temps)]
	for i, k := range g.temps {
		dst[i] = units.Kelvin(k)
	}
	return dst
}

// operator assembles the (SPD) conductance matrix G.
func (g *Grid) operator() *mathx.CSR {
	metOperatorBuilds.Inc()
	n := g.rows * g.cols
	gl := 1 / g.cfg.RLateral
	gv := 1 / g.cfg.RVertical
	var entries []mathx.Coord
	for r := 0; r < g.rows; r++ {
		for c := 0; c < g.cols; c++ {
			i := g.Index(r, c)
			diag := gv
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nr, nc := r+d[0], c+d[1]
				if nr < 0 || nr >= g.rows || nc < 0 || nc >= g.cols {
					continue
				}
				j := g.Index(nr, nc)
				entries = append(entries, mathx.Coord{Row: i, Col: j, Val: -gl})
				diag += gl
			}
			entries = append(entries, mathx.Coord{Row: i, Col: i, Val: diag})
		}
	}
	return mathx.NewCSR(n, entries)
}

// SteadyState solves the equilibrium temperatures for the given per-tile
// power map (watts), adopts them as the grid state and returns a fresh
// copy. Callers on a hot path should prefer Settle plus TemperaturesInto.
func (g *Grid) SteadyState(power []float64) ([]units.Temperature, error) {
	if err := g.Settle(power); err != nil {
		return nil, err
	}
	return g.Temperatures(), nil
}

// Settle is SteadyState without materialising the temperature copy: it
// solves the equilibrium for the power map and adopts it as the grid state,
// allocating nothing on the warm path.
func (g *Grid) Settle(power []float64) error {
	metSettles.Inc()
	n := g.rows * g.cols
	if len(power) != n {
		return fmt.Errorf("thermal: power map has %d tiles, want %d", len(power), n)
	}
	// G·(T - Tamb·1) = P with the vertical path referenced to ambient:
	// solve for the rise above ambient.
	rise, err := g.steady.Solve(power)
	if err != nil {
		return fmt.Errorf("thermal: steady state: %w", err)
	}
	for i := range g.temps {
		g.temps[i] = g.ambientK + rise[i]
	}
	return nil
}

// Hottest returns the flat index and temperature of the hottest tile.
func (g *Grid) Hottest() (int, units.Temperature) {
	idx, best := 0, g.temps[0]
	for i, t := range g.temps[1:] {
		if t > best {
			idx, best = i+1, t
		}
	}
	return idx, units.Kelvin(best)
}

// NeighbourHeat reports how much warmer tile i is than ambient due to its
// surroundings — the recyclable heat the paper proposes to exploit for
// accelerating recovery of dark (idle) tiles.
func (g *Grid) NeighbourHeat(i int) float64 {
	return g.temps[i] - g.ambientK
}
