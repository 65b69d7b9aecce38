package circuit

import (
	"errors"
	"fmt"
	"math"

	"deepheal/internal/mathx"
)

// solver options.
const (
	maxNewtonIter = 200
	newtonTolV    = 1e-9
	dampMaxDeltaV = 0.3
	gmin          = 1e-12 // leak to ground on every node for robustness
)

// ErrNoConverge is returned when Newton iteration fails to converge.
var ErrNoConverge = errors.New("circuit: newton iteration did not converge")

// assignBranches gives every voltage source its branch-current row.
func (c *Circuit) assignBranches() int {
	n := len(c.nodeList)
	k := n
	for _, e := range c.elems {
		if v, ok := e.(*vsourceElem); ok {
			v.branch = k
			k++
		}
	}
	return k - n
}

// solve runs damped Newton iteration from the x0 guess (may be nil).
// dt and prev configure transient companions (dt = 0 for DC).
func (c *Circuit) solve(x0 []float64, dt float64, prev []float64) ([]float64, error) {
	nBranch := c.assignBranches()
	dim := len(c.nodeList) + nBranch
	if dim == 0 {
		return nil, errors.New("circuit: empty netlist")
	}
	x := make([]float64, dim)
	if x0 != nil {
		copy(x, x0)
	}
	nonlinear := false
	for _, e := range c.elems {
		if !e.linear() {
			nonlinear = true
			break
		}
	}

	// One matrix and one rhs per solve call: each Newton iteration zeroes
	// them, stamps into them and hands them to SolveLU, which factors the
	// matrix in place and returns the solution in the rhs.
	ctx := &stampCtx{g: mathx.NewDense(dim, dim), rhs: make([]float64, dim), x: x, dt: dt, prev: prev}
	for iter := 0; iter < maxNewtonIter; iter++ {
		// Assemble.
		ctx.g.Zero()
		clear(ctx.rhs)
		for i := 0; i < len(c.nodeList); i++ {
			ctx.g.Add(i, i, gmin)
		}
		for _, e := range c.elems {
			e.stamp(ctx)
		}
		sol, err := mathx.SolveLU(ctx.g, ctx.rhs)
		if err != nil {
			return nil, fmt.Errorf("circuit: %w", err)
		}
		if !nonlinear {
			return sol, nil
		}
		// Damped update on node voltages; branch currents move freely.
		maxDelta := 0.0
		for i := 0; i < len(c.nodeList); i++ {
			d := math.Abs(sol[i] - x[i])
			if d > maxDelta {
				maxDelta = d
			}
		}
		alpha := 1.0
		if maxDelta > dampMaxDeltaV {
			alpha = dampMaxDeltaV / maxDelta
		}
		converged := maxDelta < newtonTolV
		for i := range x {
			x[i] += alpha * (sol[i] - x[i])
		}
		if converged {
			return x, nil
		}
	}
	return nil, ErrNoConverge
}

// makeSolution converts the raw vector into a named Solution.
func (c *Circuit) makeSolution(x []float64) *Solution {
	s := &Solution{
		volts:    make(map[string]float64, len(c.nodeList)),
		currents: make(map[string]float64, len(c.vsources)),
	}
	for name, idx := range c.nodes {
		s.volts[name] = x[idx]
	}
	for name, v := range c.vsources {
		// The branch variable is the current flowing a -> b through the
		// source; the current delivered into the external circuit out of
		// the + terminal is its negation.
		s.currents[name] = -x[v.branch]
	}
	return s
}

// DC computes the DC operating point (capacitors open).
func (c *Circuit) DC() (*Solution, error) {
	x, err := c.solve(nil, 0, nil)
	if err != nil {
		return nil, err
	}
	return c.makeSolution(x), nil
}

// Transient is an incremental transient analysis: initialise from a DC
// operating point (or zero state), then call Step repeatedly. Switch and
// source values may be changed between steps to model mode transitions.
type Transient struct {
	c *Circuit
	x []float64
	t float64
}

// NewTransient starts a transient from the circuit's DC operating point.
func (c *Circuit) NewTransient() (*Transient, error) {
	x, err := c.solve(nil, 0, nil)
	if err != nil {
		return nil, err
	}
	return &Transient{c: c, x: x}, nil
}

// Time returns the simulated time in seconds.
func (tr *Transient) Time() float64 { return tr.t }

// Step advances the transient by dt seconds and returns the new solution.
func (tr *Transient) Step(dt float64) (*Solution, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("circuit: transient step %g must be positive", dt)
	}
	prev := make([]float64, len(tr.x))
	copy(prev, tr.x)
	x, err := tr.c.solve(prev, dt, prev)
	if err != nil {
		return nil, err
	}
	tr.x = x
	tr.t += dt
	return tr.c.makeSolution(x), nil
}
