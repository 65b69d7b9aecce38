package circuit

import (
	"math"

	"deepheal/internal/mathx"
)

// stampCtx carries the MNA system under assembly. One solve call reuses it
// across its Newton iterations, zeroing g and rhs before each stamp pass.
type stampCtx struct {
	// g is the (n+m)×(n+m) MNA matrix: n node equations + m source branches.
	g   *mathx.Dense
	rhs []float64
	// x is the current Newton iterate (node voltages then branch currents).
	x []float64
	// dt > 0 during transient analysis; 0 for DC.
	dt float64
	// prev holds the previous-timestep solution during transients.
	prev []float64
}

// v returns the voltage of node index i in the current iterate (ground = 0).
func (s *stampCtx) v(i int) float64 {
	if i < 0 {
		return 0
	}
	return s.x[i]
}

// vPrev returns the previous-timestep voltage of node index i.
func (s *stampCtx) vPrev(i int) float64 {
	if i < 0 || s.prev == nil {
		return 0
	}
	return s.prev[i]
}

// addG accumulates a conductance g between nodes a and b (either may be -1).
func (s *stampCtx) addG(a, b int, g float64) {
	if a >= 0 {
		s.g.Add(a, a, g)
	}
	if b >= 0 {
		s.g.Add(b, b, g)
	}
	if a >= 0 && b >= 0 {
		s.g.Add(a, b, -g)
		s.g.Add(b, a, -g)
	}
}

// addI accumulates a current injection flowing from a to b.
func (s *stampCtx) addI(a, b int, amps float64) {
	if a >= 0 {
		s.rhs[a] -= amps
	}
	if b >= 0 {
		s.rhs[b] += amps
	}
}

// element is one netlist device able to stamp itself into the MNA system.
type element interface {
	// stamp adds the element's (linearised) contribution. branchBase is the
	// row/col index where voltage-source branch currents start; sources use
	// their assigned branch offset.
	stamp(s *stampCtx)
	// linear reports whether the element's stamp is independent of x.
	linear() bool
}

type resistorElem struct {
	name string
	a, b int
	g    float64
}

func (r *resistorElem) stamp(s *stampCtx) { s.addG(r.a, r.b, r.g) }
func (r *resistorElem) linear() bool      { return true }

type capacitorElem struct {
	name string
	a, b int
	cap  float64
}

func (c *capacitorElem) stamp(s *stampCtx) {
	if s.dt <= 0 {
		return // open in DC
	}
	// Backward-Euler companion: G = C/dt in parallel with a current source
	// reproducing the previous-step charge.
	geq := c.cap / s.dt
	s.addG(c.a, c.b, geq)
	s.addI(c.a, c.b, -geq*(s.vPrev(c.a)-s.vPrev(c.b)))
}
func (c *capacitorElem) linear() bool { return true }

type switchElem struct {
	name      string
	a, b      int
	gon, goff float64
	closed    bool
}

func (w *switchElem) stamp(s *stampCtx) {
	g := w.goff
	if w.closed {
		g = w.gon
	}
	s.addG(w.a, w.b, g)
}
func (w *switchElem) linear() bool { return true }

type vsourceElem struct {
	name   string
	a, b   int
	volts  float64
	branch int // row/col index of this source's branch current
}

func (v *vsourceElem) stamp(s *stampCtx) {
	k := v.branch
	if v.a >= 0 {
		s.g.Add(v.a, k, 1)
		s.g.Add(k, v.a, 1)
	}
	if v.b >= 0 {
		s.g.Add(v.b, k, -1)
		s.g.Add(k, v.b, -1)
	}
	s.rhs[k] += v.volts
}
func (v *vsourceElem) linear() bool { return true }

type mosElem struct {
	name    string
	d, g, s int
	p       MOSParams
	pmos    bool
}

func (m *mosElem) linear() bool { return false }

// ids computes the square-law drain current and its partial derivatives for
// an NMOS with the given terminal voltages (source-referenced).
func (m *mosElem) ids(vgs, vds float64) (id, gm, gds float64) {
	p := m.p
	if vgs <= p.Vth {
		return 0, 0, 0
	}
	vov := vgs - p.Vth
	if vds < vov {
		// Triode.
		id = p.K * (vov*vds - 0.5*vds*vds) * (1 + p.Lambda*vds)
		gm = p.K * vds * (1 + p.Lambda*vds)
		gds = p.K*(vov-vds)*(1+p.Lambda*vds) + p.K*(vov*vds-0.5*vds*vds)*p.Lambda
		return id, gm, gds
	}
	// Saturation.
	id = 0.5 * p.K * vov * vov * (1 + p.Lambda*vds)
	gm = p.K * vov * (1 + p.Lambda*vds)
	gds = 0.5 * p.K * vov * vov * p.Lambda
	return id, gm, gds
}

// stamp linearises the device around the current iterate. A PMOS maps onto
// the NMOS equations with all terminal voltages negated; in that mapping the
// small-signal conductances stamp identically and only the companion
// current flips sign. Source/drain are swapped when needed so the device
// equations always see vds >= 0.
func (m *mosElem) stamp(s *stampCtx) {
	sign := 1.0
	if m.pmos {
		sign = -1.0
	}
	d, src := m.d, m.s
	vds := sign * (s.v(d) - s.v(src))
	vgs := sign * (s.v(m.g) - s.v(src))
	if vds < 0 {
		d, src = src, d
		vds = -vds
		vgs = sign * (s.v(m.g) - s.v(src))
	}
	id, gm, gds := m.ids(vgs, vds)
	// Floor the output conductance for Newton robustness (an OFF device
	// would otherwise leave its nodes floating).
	gds = math.Max(gds, 1e-12)
	s.addG(d, src, gds)
	s.stampVCCS(d, src, m.g, src, gm)
	ieq := id - gm*vgs - gds*vds
	s.addI(d, src, sign*ieq)
}

// stampVCCS stamps a voltage-controlled current source: current g*(Vc - Vd)
// flowing from node a to node b.
func (s *stampCtx) stampVCCS(a, b, cpos, cneg int, g float64) {
	if g == 0 {
		return
	}
	if a >= 0 && cpos >= 0 {
		s.g.Add(a, cpos, g)
	}
	if a >= 0 && cneg >= 0 {
		s.g.Add(a, cneg, -g)
	}
	if b >= 0 && cpos >= 0 {
		s.g.Add(b, cpos, -g)
	}
	if b >= 0 && cneg >= 0 {
		s.g.Add(b, cneg, g)
	}
}
