package bti

import (
	"math"
	"sync"
)

// The CET evolution kernel exploits the separable structure of the trap
// update. A cell (i, j) relaxes toward its equilibrium occupancy with rate
// r_ij = rc_i + re_j, so the per-substep decay factor factorises:
//
//	exp(-(rc_i+re_j)·dt) = exp(-rc_i·dt) · exp(-re_j·dt)
//
// Evolving a grid therefore needs O(nc+ne) exponentials, not O(nc·ne): the
// axis decay vectors are combined per cell with one multiply. Two paths
// share that identity, chosen per condition key (captureAF, emitAF, dt):
//
//   - A kernel materialises the fused per-cell pInf/decay fields, so every
//     substep it serves is a pure fused multiply-add sweep with no divisions
//     or transcendentals. Cached kernels serve keys that recur across phases
//     — device experiments replay a handful of exact conditions, and
//     replicated fleet chips see bitwise-equal per-tile temperatures (the
//     thermal solve is a direct Cholesky factorisation, so equal power maps
//     give equal temperatures). A pooled scratch kernel serves one phase
//     whose key is not cached (see phaseSweeper).
//   - A direct separable sweep computes the axis vectors into pooled scratch
//     and fuses on the fly. It serves the remaining misses; a sweep whose
//     phase already holds a kernel borrows that kernel's dt-independent pInf
//     field instead of dividing per cell, and a non-stressing sweep needs no
//     pInf at all (it is exactly +0).
//
// A key is promoted to a cached kernel when it is requested from two
// distinct Apply phases (each phase draws a fresh token from the grid's
// atomic counter). Promotion deliberately ignores repeats within one phase:
// the phase's own scratch kernel already serves those, and materialising a
// cached kernel for a key that never returns is pure churn. All paths apply
// identical operations in identical order, so they agree bit-for-bit; each
// matches the naive per-cell-exponential reference within ~1e-15 relative
// (see kernel_test.go).

// condKey identifies one evolution kernel: the acceleration factors and the
// substep length fully determine the per-cell decay and equilibrium fields.
type condKey struct {
	captureAF, emitAF, dt float64
}

// evolveKernel holds the precomputed per-cell update for one condition key:
//
//	occ' = pInf + (occ − pInf)·decay
//
// decay is the materialised outer product decayC[i]·decayE[j] — built from
// the axis vectors, stored fused so kernelSweep is a branch-free flat sweep.
// Cells with zero total rate carry pInf = 0, decay = 1 (a no-op). Both
// fields are convex weights, keeping occupancies inside [0, 1].
type evolveKernel struct {
	pInf  []float64
	decay []float64
}

// floats reports the kernel's cached-memory footprint in float64 words.
func (k *evolveKernel) floats() int {
	return len(k.pInf) + len(k.decay)
}

// Cache bounds. The kernel cache is bounded by total floats, not entries: a
// many-core simulator with a periodic recovery rotation keeps cores ×
// rotation-patterns kernels hot, and cell counts vary per grid. Once full
// the cache refuses further admissions rather than evicting: under a
// periodic working set larger than the cap, any eviction scheme rebuilds
// every kernel each cycle (the access pattern is a sequential scan), whereas
// a pinned resident set keeps serving its share of hits with zero churn and
// overflow keys are served per phase (see phaseSweeper). Because nothing is
// ever evicted, a full cache answers every miss under the read lock. The
// seen map is cleared wholesale when full — it only gates promotion, so
// losing it merely delays a kernel by one recurrence.
const (
	maxKernelFloats = 1 << 21 // ≈16 MB of cached kernel fields per grid
	maxSeenKeys     = 4096    // one-shot keys awaiting promotion (32 B each)
)

// kernel returns the cached evolution kernel for the condition key, or nil
// if the key has not recurred across phases yet (the caller then sweeps
// without a cached kernel). Safe for concurrent use: devices sharing a grid
// may evolve in parallel worker shards.
func (g *cetGrid) kernel(captureAF, emitAF, dt float64, phase uint64) *evolveKernel {
	key := condKey{captureAF, emitAF, dt}
	g.mu.RLock()
	k := g.kernels[key]
	full := g.kernelFloats+2*g.nc*g.ne > maxKernelFloats
	g.mu.RUnlock()
	if k != nil {
		metKernelHits.Inc()
		return k
	}
	if full {
		// The cache never evicts, so once the budget is full no key can be
		// admitted again: answer the miss without the write lock.
		metKernelMisses.Inc()
		return nil
	}
	g.mu.Lock()
	if k = g.kernels[key]; k != nil { // raced with another promoter
		g.mu.Unlock()
		metKernelHits.Inc()
		return k
	}
	first, ok := g.seen[key]
	if !ok || first == phase {
		if !ok {
			if g.seen == nil || len(g.seen) >= maxSeenKeys {
				g.seen = make(map[condKey]uint64, 64)
			}
			g.seen[key] = phase
		}
		g.mu.Unlock()
		metKernelMisses.Inc()
		return nil
	}
	if g.kernelFloats+2*g.nc*g.ne > maxKernelFloats {
		g.mu.Unlock() // filled since the read check: keep the resident set
		metKernelRefusals.Inc()
		metKernelMisses.Inc()
		return nil
	}
	delete(g.seen, key)
	g.mu.Unlock()

	k = g.buildKernel(captureAF, emitAF, dt) // outside the lock: O(nc·ne)
	metKernelBuilds.Inc()
	if g.testBuildHook != nil {
		g.testBuildHook()
	}
	g.mu.Lock()
	if g.kernels == nil {
		g.kernels = make(map[condKey]*evolveKernel, 16)
	}
	if g.kernelFloats+k.floats() <= maxKernelFloats {
		g.kernels[key] = k
		g.kernelFloats += k.floats()
		metKernelResident.Add(float64(k.floats()))
	} else {
		// Racing builders filled the float budget while we built. The fresh
		// kernel still serves this substep, but it cannot be admitted — so
		// put the promotion credit back. Without the restore the key would
		// have to re-earn promotion across two fresh phases even though it
		// already proved it recurs; with it, the key retries as soon as it
		// is requested again and is refused only while the budget stays
		// full.
		if g.seen == nil || len(g.seen) >= maxSeenKeys {
			g.seen = make(map[condKey]uint64, 64)
		}
		g.seen[key] = first
		metKernelRefusals.Inc()
	}
	g.mu.Unlock()
	return k
}

// buildKernel computes the axis decay vectors and fuses them into the
// per-cell fields: O(nc+ne) exponentials plus one O(nc·ne) multiply/divide
// sweep, amortised over every later substep at the same key.
func (g *cetGrid) buildKernel(captureAF, emitAF, dt float64) *evolveKernel {
	k := &evolveKernel{
		pInf:  make([]float64, g.nc*g.ne),
		decay: make([]float64, g.nc*g.ne),
	}
	g.fillKernel(k, captureAF, emitAF, dt)
	return k
}

// fillKernel overwrites k's fields with the fused update for the condition
// key. It is the single source of kernel values: cached kernels and pooled
// scratch kernels both fill through here, and the separable sweep runs the
// same per-cell operations, so every path is bit-identical by construction.
func (g *cetGrid) fillKernel(k *evolveKernel, captureAF, emitAF, dt float64) {
	sc := g.axes(captureAF, emitAF, dt)
	re, decayE := sc.re, sc.decayE
	ne := g.ne
	for i := 0; i < g.nc; i++ {
		rc, dc := 0.0, 1.0 // exp(-0·dt) is exactly 1
		if captureAF > 0 {
			rc, dc = sc.rc[i], sc.dc[i]
		}
		base := i * ne
		for j := 0; j < ne; j++ {
			rate := rc + re[j]
			if rate <= 0 {
				k.pInf[base+j] = 0 // the cell is frozen
				k.decay[base+j] = 1
				continue
			}
			k.pInf[base+j] = rc / rate
			k.decay[base+j] = dc * decayE[j]
		}
	}
	g.scratch.Put(sc)
}

// kernelSweep advances the occupancy vector by one kernel substep: a pure
// fused multiply-add sweep with no divisions or transcendentals. The
// arithmetic is float64 for either storage; float32 only narrows the store.
func kernelSweep[F floatOcc](k *evolveKernel, occ []F) {
	pInf := k.pInf[:len(occ)]
	decay := k.decay[:len(occ)]
	for idx := range occ {
		occ[idx] = F(pInf[idx] + (float64(occ[idx])-pInf[idx])*decay[idx])
	}
}

// axisScratch holds the axis rates and decays of one substep, pooled per
// grid so sweeps and kernel fills allocate nothing at steady state. The
// capture axis (rc, dc) is filled only under stress.
type axisScratch struct {
	re, decayE []float64 // emission axis, len ne
	rc, dc     []float64 // capture axis, len nc
}

// axes returns pooled scratch filled with the axis vectors for the
// condition key. Return it with g.scratch.Put.
func (g *cetGrid) axes(captureAF, emitAF, dt float64) *axisScratch {
	sc, _ := g.scratch.Get().(*axisScratch)
	if sc == nil {
		sc = &axisScratch{
			re: make([]float64, g.ne), decayE: make([]float64, g.ne),
			rc: make([]float64, g.nc), dc: make([]float64, g.nc),
		}
	}
	for j := range sc.re {
		sc.re[j] = emitAF / g.tauE[j]
		sc.decayE[j] = math.Exp(-sc.re[j] * dt)
	}
	if captureAF > 0 {
		for i := range sc.rc {
			sc.rc[i] = captureAF / g.tauC[i]
			sc.dc[i] = math.Exp(-sc.rc[i] * dt)
		}
	}
	return sc
}

// separableSweep advances every device in devs by one substep without a
// kernel for dt: the axis vectors are computed once into pooled scratch and
// fused per cell by separableRows.
func separableSweep(g *cetGrid, devs []*Device, pInf []float64, captureAF, emitAF, dt float64) {
	metSeparableSweep.Add(uint64(len(devs)))
	sc := g.axes(captureAF, emitAF, dt)
	for _, d := range devs {
		if d.occ32 != nil {
			separableRows(g, sc, d.occ32, pInf, captureAF)
		} else {
			separableRows(g, sc, d.occ, pInf, captureAF)
		}
	}
	g.scratch.Put(sc)
}

// separableRows fuses the axis vectors in sc into occ, bit-identical to a
// kernel built for the same key, through one of three loops:
//
//   - Non-stressing (captureAF == 0): rc = 0, so pInf = 0/rate is exactly +0
//     and dc = exp(-0·dt) exactly 1; the update reduces to +0 + occ·decayE[j]
//     with no division and no capture-axis exponentials. (The +0 keeps a −0
//     occupancy mapping to +0, as the general update does.)
//   - pInf given: the caller's phase kernel holds the fused equilibrium
//     field, which depends only on the acceleration factors, not on dt — so
//     a remainder substep reuses it instead of dividing per cell.
//   - Otherwise: one division per cell for pInf = rc/rate.
func separableRows[F floatOcc](g *cetGrid, sc *axisScratch, occ []F, pInf []float64, captureAF float64) {
	re, decayE := sc.re, sc.decayE
	ne := g.ne
	for i := 0; i < g.nc; i++ {
		row := occ[i*ne : (i+1)*ne]
		switch {
		case captureAF <= 0:
			for j := range row {
				row[j] = F(0 + float64(row[j])*decayE[j])
			}
		case pInf != nil:
			dc := sc.dc[i]
			p := pInf[i*ne : (i+1)*ne]
			for j := range row {
				row[j] = F(p[j] + (float64(row[j])-p[j])*(dc*decayE[j]))
			}
		default:
			rc, dc := sc.rc[i], sc.dc[i]
			for j := range row {
				rate := rc + re[j]
				if rate <= 0 {
					continue
				}
				p := rc / rate
				row[j] = F(p + (float64(row[j])-p)*(dc*decayE[j]))
			}
		}
	}
}

// scratchKernel returns a pooled kernel filled for the condition key
// (identical values to a cached kernel, see fillKernel): one O(nc·ne)
// materialisation amortised over every sweep it serves, where the separable
// sweep would pay the nc·ne divisions each time. Return it with
// putScratchKernel.
func (g *cetGrid) scratchKernel(captureAF, emitAF, dt float64) *evolveKernel {
	k, _ := g.kernelScratch.Get().(*evolveKernel)
	if k == nil {
		k = &evolveKernel{
			pInf:  make([]float64, g.nc*g.ne),
			decay: make([]float64, g.nc*g.ne),
		}
	}
	g.fillKernel(k, captureAF, emitAF, dt)
	return k
}

// putScratchKernel recycles a scratchKernel result.
func (g *cetGrid) putScratchKernel(k *evolveKernel) {
	g.kernelScratch.Put(k)
}

// phaseSweeper serves the CET sweeps of one Apply phase — one condition
// over one duration, for one device (ApplyObserved) or a same-grid group
// (BatchApply). The phase holds at most one kernel, the first one it
// obtains: a cached kernel from a hit, or — on a stressing miss in a phase
// that sweeps its key at least twice (two full substeps, or several
// devices) — a pooled scratch kernel filled once. Later sweeps at the
// kernel's substep length reuse it without touching the cache. Sweeps at
// any other length (the remainder, an observation split, the non-stressing
// collapse) still consult the cache first — replicated fleet chips hit it —
// and on a miss sweep separably, borrowing the phase kernel's pInf, which
// does not depend on dt, instead of dividing per cell.
type phaseSweeper struct {
	g                 *cetGrid
	captureAF, emitAF float64
	token             uint64        // the phase token for cache promotion
	fill              bool          // a stressing miss is worth a scratch kernel
	k                 *evolveKernel // the phase kernel, nil until obtained
	kdt               float64       // the substep length k was built for
	pooled            bool          // k is a pooled scratch kernel
}

// close returns the phase's scratch kernel to the pool.
func (p *phaseSweeper) close() {
	if p.pooled {
		p.g.putScratchKernel(p.k)
		p.k, p.pooled = nil, false
	}
}

// sweep advances every device in devs by dt seconds within the phase. With
// every rate zero (or a degenerate duration) the sweep is a no-op and is
// skipped.
func (p *phaseSweeper) sweep(devs []*Device, dt float64) {
	if dt <= 0 || (p.captureAF <= 0 && p.emitAF <= 0) {
		return
	}
	if p.k != nil && p.kdt == dt {
		sweepKernel(p.k, devs)
		return
	}
	g := p.g
	if k := g.kernel(p.captureAF, p.emitAF, dt, p.token); k != nil {
		if p.k == nil {
			p.k, p.kdt = k, dt
		}
		sweepKernel(k, devs)
		return
	}
	if p.k == nil && p.fill {
		metPhaseKernels.Inc()
		p.k, p.kdt, p.pooled = g.scratchKernel(p.captureAF, p.emitAF, dt), dt, true
		sweepKernel(p.k, devs)
		return
	}
	var pInf []float64
	if p.k != nil {
		pInf = p.k.pInf
	}
	separableSweep(g, devs, pInf, p.captureAF, p.emitAF, dt)
}

// sweepKernel advances every device in devs through k, dispatching on each
// device's storage.
func sweepKernel(k *evolveKernel, devs []*Device) {
	for _, d := range devs {
		if d.occ32 != nil {
			kernelSweep(k, d.occ32)
		} else {
			kernelSweep(k, d.occ)
		}
	}
}

// Shared-grid cache: devices built from equal Params reuse one immutable
// cetGrid (and with it one kernel cache), so a fleet of chips with a handful
// of distinct process corners pays for grid discretisation and kernel
// building once, not per core. Entries are refcounted: every NewDevice /
// Clone acquires a reference and Device.Release drops it, so a long-running
// service that registers and retires chips can recycle cache slots —
// zero-reference entries are evicted under cap pressure, while entries with
// live holders are pinned. Devices that never Release (short-lived
// experiment populations) simply keep their entries pinned, which matches
// the old never-evict behaviour.

// maxGridCache bounds the shared-grid cache. Population studies draw
// per-device parameter variations, each a distinct key; past the cap (when
// no idle entry can be evicted) those devices simply build private grids.
const maxGridCache = 128

// gridEntry is one refcounted shared grid.
type gridEntry struct {
	grid *cetGrid
	refs int
}

var (
	gridMu     sync.Mutex
	gridCache  = map[Params]*gridEntry{}
	gridBuilds uint64 // grids discretised since process start, under gridMu
)

// acquireGrid returns the shared grid for p with one reference held,
// building it on first use.
func acquireGrid(p Params) *cetGrid {
	gridMu.Lock()
	defer gridMu.Unlock()
	if e, ok := gridCache[p]; ok {
		e.refs++
		metGridHits.Inc()
		return e.grid
	}
	g := newCETGrid(p)
	gridBuilds++
	metGridBuilds.Inc()
	if len(gridCache) >= maxGridCache {
		for key, e := range gridCache {
			if e.refs == 0 {
				delete(gridCache, key)
				metGridEvictions.Inc()
				break
			}
		}
	}
	if len(gridCache) < maxGridCache {
		gridCache[p] = &gridEntry{grid: g, refs: 1}
		metGridEntries.Set(float64(len(gridCache)))
	}
	return g
}

// reacquireGrid adds a reference for an existing holder (Clone). A grid that
// was never admitted to the cache (or was built privately) has no entry; the
// call is then a no-op because private grids need no bookkeeping.
func reacquireGrid(p Params, g *cetGrid) {
	gridMu.Lock()
	defer gridMu.Unlock()
	if e, ok := gridCache[p]; ok && e.grid == g {
		e.refs++
	}
}

// releaseGrid drops one reference. The grid itself stays valid — release is
// bookkeeping that lets the cache recycle the slot once nobody holds it.
func releaseGrid(p Params, g *cetGrid) {
	gridMu.Lock()
	defer gridMu.Unlock()
	if e, ok := gridCache[p]; ok && e.grid == g && e.refs > 0 {
		e.refs--
	}
}

// GridStats describes the shared CET-grid cache at one instant.
type GridStats struct {
	// Entries is the number of distinct Params with a resident shared grid.
	Entries int
	// LiveRefs is the number of references currently held by devices.
	LiveRefs int
	// Builds counts grids discretised since process start; a steady fleet
	// stepping over a fixed corner set must not advance it.
	Builds uint64
}

// GridCacheStats reports the shared-grid cache state; fleet benchmarks use
// Builds to assert that warm stepping allocates no new grids.
func GridCacheStats() GridStats {
	gridMu.Lock()
	defer gridMu.Unlock()
	s := GridStats{Entries: len(gridCache), Builds: gridBuilds}
	for _, e := range gridCache {
		s.LiveRefs += e.refs
	}
	return s
}
