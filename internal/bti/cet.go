package bti

import (
	"math"
	"sync"
	"sync/atomic"
)

// cetGrid is the immutable geometry and weighting of a capture–emission-time
// map. Devices built from the same Params share one grid; only the occupancy
// vector is per-device state. The kernel cache (see kernel.go) is the one
// mutable, lock-guarded part.
type cetGrid struct {
	nc, ne int
	// tauC[i] and tauE[j] are the cell-centre capture/emission times
	// (seconds at the respective reference conditions).
	tauC []float64
	tauE []float64
	// weight[i*ne+j] is the threshold-voltage contribution (volts) of cell
	// (i, j) at full occupancy. Weights sum to MaxShiftV.
	weight []float64

	mu            sync.RWMutex
	kernels       map[condKey]*evolveKernel
	kernelFloats  int                // cached kernel footprint, in float64s
	seen          map[condKey]uint64 // key → phase that first requested it
	phase         atomic.Uint64      // Apply-phase token source (see kernel.go)
	scratch       sync.Pool          // *axisScratch for sweeps and kernel fills
	kernelScratch sync.Pool          // *evolveKernel for uncached phases

	// testBuildHook, when non-nil, runs between buildKernel and the
	// re-acquisition of mu in kernel() — tests use it to interleave a racing
	// builder deterministically. Always nil outside tests.
	testBuildHook func()
}

// newCETGrid discretises the bivariate-lognormal trap density onto a
// log-spaced grid spanning ±3.2σ on both axes.
func newCETGrid(p Params) *cetGrid {
	const span = 3.2
	g := &cetGrid{
		nc:     p.GridCapture,
		ne:     p.GridEmission,
		tauC:   make([]float64, p.GridCapture),
		tauE:   make([]float64, p.GridEmission),
		weight: make([]float64, p.GridCapture*p.GridEmission),
	}
	lnC := gridAxis(p.MuCapture, p.SigmaCapture, span, p.GridCapture)
	lnE := gridAxis(p.MuEmission, p.SigmaEmission, span, p.GridEmission)
	for i, v := range lnC {
		g.tauC[i] = math.Exp(v)
	}
	for j, v := range lnE {
		g.tauE[j] = math.Exp(v)
	}
	// Bivariate normal density in (ln tau_c, ln tau_e) with correlation.
	rho := p.Correlation
	norm := 0.0
	for i, lc := range lnC {
		zc := (lc - p.MuCapture) / p.SigmaCapture
		for j, le := range lnE {
			ze := (le - p.MuEmission) / p.SigmaEmission
			q := (zc*zc - 2*rho*zc*ze + ze*ze) / (2 * (1 - rho*rho))
			w := math.Exp(-q)
			g.weight[i*g.ne+j] = w
			norm += w
		}
	}
	scale := p.MaxShiftV / norm
	for k := range g.weight {
		g.weight[k] *= scale
	}
	return g
}

func gridAxis(mu, sigma, span float64, n int) []float64 {
	out := make([]float64, n)
	step := 2 * span * sigma / float64(n-1)
	for i := range out {
		out[i] = mu - span*sigma + float64(i)*step
	}
	return out
}

// floatOcc constrains the occupancy element type. All kernel arithmetic runs
// in float64 regardless; a float32 instantiation only narrows the stored
// result, halving resident occupancy bytes for fleet-scale populations. The
// float64 instantiation performs the exact operation sequence the pre-generic
// code did, so it stays bit-identical.
type floatOcc interface{ ~float32 | ~float64 }

// naiveSweep is the direct per-cell reference implementation (one
// exponential per cell per substep). The kernel path must match it within
// 1e-12 relative; the differential tests in kernel_test.go enforce that.
func naiveSweep[F floatOcc](g *cetGrid, occ []F, captureAF, emitAF, dt float64) {
	for i := 0; i < g.nc; i++ {
		var rc float64
		if captureAF > 0 {
			rc = captureAF / g.tauC[i]
		}
		row := occ[i*g.ne : (i+1)*g.ne]
		for j := range row {
			re := emitAF / g.tauE[j]
			rate := rc + re
			if rate <= 0 {
				continue
			}
			pInf := rc / rate
			row[j] = F(pInf + (float64(row[j])-pInf)*math.Exp(-rate*dt))
		}
	}
}

// evolveNaive is the float64 form of naiveSweep.
func (g *cetGrid) evolveNaive(occ []float64, captureAF, emitAF, dt float64) {
	naiveSweep(g, occ, captureAF, emitAF, dt)
}

// gridShift returns the threshold-voltage contribution of the occupancy
// vector; the accumulation is float64 for either storage.
func gridShift[F floatOcc](g *cetGrid, occ []F) float64 {
	var s float64
	for k, w := range g.weight {
		s += w * float64(occ[k])
	}
	return s
}

// shift is the float64 form of gridShift.
func (g *cetGrid) shift(occ []float64) float64 {
	return gridShift(g, occ)
}

// meanOccupancy returns the weight-averaged occupancy in [0, 1].
func (g *cetGrid) meanOccupancy(occ []float64, maxShift float64) float64 {
	if maxShift <= 0 {
		return 0
	}
	return g.shift(occ) / maxShift
}
