// Package circuit implements a small SPICE-like circuit simulator based on
// modified nodal analysis (MNA): resistors, capacitors, independent voltage
// sources, externally controlled switches and square-law MOSFETs, with DC
// operating point (Newton iteration) and backward-Euler transient analysis.
//
// It exists to simulate the paper's assist circuitry (Fig. 8/9/10) the way
// the authors used SPICE on 28 nm FD-SOI, and is deliberately scoped to the
// element set that circuit class needs.
package circuit

import (
	"errors"
	"fmt"
)

// Ground is the reference node; its voltage is fixed at 0.
const Ground = "0"

// Circuit is a netlist under construction. Add elements, then call DC or
// NewTransient. Node names are arbitrary strings; Ground is "0".
type Circuit struct {
	nodes    map[string]int // name -> index (ground excluded)
	nodeList []string
	elems    []element
	switches map[string]*switchElem
	vsources map[string]*vsourceElem
}

// New creates an empty circuit.
func New() *Circuit {
	return &Circuit{
		nodes:    make(map[string]int),
		switches: make(map[string]*switchElem),
		vsources: make(map[string]*vsourceElem),
	}
}

// node interns a node name, returning its index (-1 for ground).
func (c *Circuit) node(name string) int {
	if name == Ground {
		return -1
	}
	if idx, ok := c.nodes[name]; ok {
		return idx
	}
	idx := len(c.nodeList)
	c.nodes[name] = idx
	c.nodeList = append(c.nodeList, name)
	return idx
}

// NumNodes returns the number of non-ground nodes.
func (c *Circuit) NumNodes() int { return len(c.nodeList) }

// AddResistor connects a resistor of r ohms between nodes a and b.
func (c *Circuit) AddResistor(name, a, b string, r float64) error {
	if r <= 0 {
		return fmt.Errorf("circuit: resistor %q needs positive resistance, got %g", name, r)
	}
	c.elems = append(c.elems, &resistorElem{name: name, a: c.node(a), b: c.node(b), g: 1 / r})
	return nil
}

// AddCapacitor connects a capacitor of f farads between nodes a and b.
// Capacitors are open circuits in DC analysis.
func (c *Circuit) AddCapacitor(name, a, b string, f float64) error {
	if f <= 0 {
		return fmt.Errorf("circuit: capacitor %q needs positive capacitance, got %g", name, f)
	}
	c.elems = append(c.elems, &capacitorElem{name: name, a: c.node(a), b: c.node(b), cap: f})
	return nil
}

// AddVSource connects an independent voltage source (plus at a, minus at b).
func (c *Circuit) AddVSource(name, a, b string, volts float64) error {
	if _, dup := c.vsources[name]; dup {
		return fmt.Errorf("circuit: duplicate voltage source %q", name)
	}
	v := &vsourceElem{name: name, a: c.node(a), b: c.node(b), volts: volts}
	c.vsources[name] = v
	c.elems = append(c.elems, v)
	return nil
}

// AddSwitch connects an externally controlled switch between a and b with
// the given on/off resistances. Switches start open; drive them with
// SetSwitch.
func (c *Circuit) AddSwitch(name, a, b string, ron, roff float64) error {
	if ron <= 0 || roff <= ron {
		return fmt.Errorf("circuit: switch %q needs 0 < ron < roff, got %g/%g", name, ron, roff)
	}
	if _, dup := c.switches[name]; dup {
		return fmt.Errorf("circuit: duplicate switch %q", name)
	}
	s := &switchElem{name: name, a: c.node(a), b: c.node(b), gon: 1 / ron, goff: 1 / roff}
	c.switches[name] = s
	c.elems = append(c.elems, s)
	return nil
}

// SetSwitch opens or closes a switch by name.
func (c *Circuit) SetSwitch(name string, closed bool) error {
	s, ok := c.switches[name]
	if !ok {
		return fmt.Errorf("circuit: unknown switch %q", name)
	}
	s.closed = closed
	return nil
}

// SetVSource updates an independent voltage source's value.
func (c *Circuit) SetVSource(name string, volts float64) error {
	v, ok := c.vsources[name]
	if !ok {
		return fmt.Errorf("circuit: unknown voltage source %q", name)
	}
	v.volts = volts
	return nil
}

// MOSParams describes a square-law MOSFET.
type MOSParams struct {
	// K is the transconductance factor k' (A/V²); already includes W/L.
	K float64
	// Vth is the threshold voltage magnitude (positive for both polarities).
	Vth float64
	// Lambda is the channel-length modulation (1/V); 0 is allowed.
	Lambda float64
}

// Validate reports whether the MOSFET parameters are usable.
func (m MOSParams) Validate() error {
	if m.K <= 0 || m.Vth <= 0 || m.Lambda < 0 {
		return errors.New("circuit: MOSFET needs K > 0, Vth > 0, Lambda >= 0")
	}
	return nil
}

// AddNMOS connects an NMOS transistor (drain, gate, source).
func (c *Circuit) AddNMOS(name, drain, gate, source string, p MOSParams) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("%w (nmos %q)", err, name)
	}
	c.elems = append(c.elems, &mosElem{
		name: name, d: c.node(drain), g: c.node(gate), s: c.node(source), p: p, pmos: false,
	})
	return nil
}

// AddPMOS connects a PMOS transistor (drain, gate, source).
func (c *Circuit) AddPMOS(name, drain, gate, source string, p MOSParams) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("%w (pmos %q)", err, name)
	}
	c.elems = append(c.elems, &mosElem{
		name: name, d: c.node(drain), g: c.node(gate), s: c.node(source), p: p, pmos: true,
	})
	return nil
}

// Solution holds node voltages and source branch currents from an analysis.
type Solution struct {
	volts    map[string]float64
	currents map[string]float64 // per voltage source, positive out of + pin into the circuit
}

// Voltage returns the solved voltage of a node (0 for ground and unknown
// nodes; use Has to distinguish).
func (s *Solution) Voltage(nodeName string) float64 { return s.volts[nodeName] }

// Has reports whether the node exists in the solution.
func (s *Solution) Has(nodeName string) bool {
	if nodeName == Ground {
		return true
	}
	_, ok := s.volts[nodeName]
	return ok
}

// SourceCurrent returns the current delivered by a voltage source (positive
// flowing out of its + terminal through the external circuit).
func (s *Solution) SourceCurrent(name string) float64 { return s.currents[name] }
