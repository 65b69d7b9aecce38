package bti

import (
	"fmt"
	"math"
)

// Storage selects the occupancy element type of a Device. All kernel
// arithmetic runs in float64 either way; Float32 narrows only the stored
// occupancy, halving the dominant resident cost of fleet-scale populations
// (and their compact snapshots) at a bounded accuracy loss — see the
// differential tests for the documented tolerance against Float64 on the
// paper's Table I conditions.
type Storage uint8

const (
	// StorageFloat64 is the default full-precision occupancy storage.
	StorageFloat64 Storage = iota
	// StorageFloat32 halves occupancy memory for fleet-scale populations.
	StorageFloat32
)

// String names the storage mode.
func (s Storage) String() string {
	if s == StorageFloat32 {
		return "float32"
	}
	return "float64"
}

// Device is one BTI-aging transistor population (a gate, a standard-cell
// block, a core — any granularity at which a single stress history applies).
// It tracks the recoverable CET trap occupancy plus the two-stage permanent
// component. A fresh Device has zero threshold shift.
//
// Device is not safe for concurrent use; clone per goroutine.
type Device struct {
	params Params
	grid   *cetGrid
	// Exactly one occupancy vector is non-nil, per the Storage mode the
	// device was built with: CET occupancy, [0,1] per cell.
	occ   []float64
	occ32 []float32

	precursorV float64 // P1: annealable permanent precursor (V)
	lockedV    float64 // P2: locked permanent component (V)

	age float64 // accumulated simulated seconds
}

// NewDevice builds a fresh device from the given parameters with the default
// float64 occupancy storage.
func NewDevice(p Params) (*Device, error) {
	return NewDeviceStorage(p, StorageFloat64)
}

// NewDeviceStorage builds a fresh device with the given occupancy storage.
func NewDeviceStorage(p Params, s Storage) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newDeviceOnGrid(p, s, acquireGrid(p)), nil
}

// newDeviceOnGrid assembles a device over an already-built grid — either a
// shared cache entry (NewDeviceStorage) or a private grid (population
// variation draws, which must not churn the shared cache). Params must be
// validated by the caller.
func newDeviceOnGrid(p Params, s Storage, g *cetGrid) *Device {
	d := &Device{params: p, grid: g}
	if s == StorageFloat32 {
		d.occ32 = make([]float32, p.GridCapture*p.GridEmission)
	} else {
		d.occ = make([]float64, p.GridCapture*p.GridEmission)
	}
	return d
}

// MustNewDevice is NewDevice for known-good parameters; it panics on error.
// Intended for package defaults and tests.
func MustNewDevice(p Params) *Device {
	d, err := NewDevice(p)
	if err != nil {
		panic(fmt.Sprintf("bti: %v", err))
	}
	return d
}

// Params returns the device's parameter set.
func (d *Device) Params() Params { return d.params }

// Storage reports the device's occupancy storage mode.
func (d *Device) Storage() Storage {
	if d.occ32 != nil {
		return StorageFloat32
	}
	return StorageFloat64
}

// recoverable returns the trap-ensemble shift, dispatching on storage.
func (d *Device) recoverable() float64 {
	if d.occ32 != nil {
		return gridShift(d.grid, d.occ32)
	}
	return gridShift(d.grid, d.occ)
}

// ShiftV returns the total threshold-voltage shift in volts.
func (d *Device) ShiftV() float64 {
	return d.recoverable() + d.precursorV + d.lockedV
}

// RecoverableV returns the trap-ensemble (recoverable) part of the shift.
func (d *Device) RecoverableV() float64 { return d.recoverable() }

// PermanentV returns the permanent part of the shift (precursor + locked).
func (d *Device) PermanentV() float64 { return d.precursorV + d.lockedV }

// LockedV returns only the locked, non-annealable part of the shift.
func (d *Device) LockedV() float64 { return d.lockedV }

// Age returns the total simulated time the device has lived, in seconds.
func (d *Device) Age() float64 { return d.age }

// Clone returns an independent copy sharing the immutable CET grid; the
// copy holds its own cache reference.
func (d *Device) Clone() *Device {
	c := *d
	if d.occ32 != nil {
		c.occ32 = make([]float32, len(d.occ32))
		copy(c.occ32, d.occ32)
	} else {
		c.occ = make([]float64, len(d.occ))
		copy(c.occ, d.occ)
	}
	if d.grid != nil {
		reacquireGrid(d.params, d.grid)
	}
	return &c
}

// Release drops the device's reference on the shared CET-grid cache so an
// idle corner's grid can be recycled once every holder is gone. The device
// must not be used afterwards. Short-lived devices may skip Release — their
// grids merely stay pinned, which is the pre-refcounting behaviour.
func (d *Device) Release() {
	if d.grid == nil {
		return
	}
	releaseGrid(d.params, d.grid)
	d.grid = nil
}

// Reset returns the device to the fresh state.
func (d *Device) Reset() {
	for i := range d.occ {
		d.occ[i] = 0
	}
	for i := range d.occ32 {
		d.occ32[i] = 0
	}
	d.precursorV, d.lockedV, d.age = 0, 0, 0
}

// maxSubstep bounds the integration step so the permanent-component
// kinetics (whose generation term depends on the evolving occupancy) stay
// accurate across long phases.
const maxSubstep = 900 // seconds

// Apply evolves the device under condition c for dur seconds.
func (d *Device) Apply(c Condition, dur float64) {
	d.ApplyObserved(c, dur, 0, nil)
}

// ApplyObserved evolves the device under condition c for dur seconds,
// invoking observe (if non-nil) about every observeEvery seconds and at the
// end of the phase with the elapsed in-phase time and total shift.
func (d *Device) ApplyObserved(c Condition, dur float64, observeEvery float64, observe func(t, shiftV float64)) {
	if dur <= 0 {
		return
	}
	devs := [1]*Device{d}
	applyPhase(devs[:], c, dur, observeEvery, observe)
}

// applyPhase is the one substep loop behind ApplyObserved and BatchApply:
// it evolves devs — one device, or a group sharing a grid — under c for
// dur seconds in min(maxSubstep, remaining) substeps. The device loop is
// innermost, and devices are mutually independent, so a group ends
// bit-identical to applying each device alone. observe (single device
// only) is called about every observeEvery seconds and at the end of the
// phase. A stressing miss is worth a scratch kernel (fill) when the phase
// sweeps its first key at least twice: it spans two full substeps or
// covers several devices.
func applyPhase(devs []*Device, c Condition, dur, observeEvery float64, observe func(t, shiftV float64)) {
	d0 := devs[0]
	captureAF := d0.params.captureAccel(c)
	emitAF := d0.params.emissionAccel(c)
	ps := phaseSweeper{
		g: d0.grid, captureAF: captureAF, emitAF: emitAF,
		token: d0.grid.phase.Add(1), // see kernel.go: promotion is cross-phase
		fill:  c.Stressing() && (len(devs) > 1 || dur >= 2*maxSubstep),
	}
	defer ps.close()

	// Closed-form fast path: outside stress the permanent kinetics never
	// read the occupancy (the generation term is zero), so k consecutive
	// CET substeps collapse to one kernel application at the combined
	// duration — occ = pInf + (occ0−pInf)·decay^k, with decay^k evaluated
	// as a single exponential. The permanent component still integrates at
	// maxSubstep resolution (it is O(1) per substep and its coefficients
	// depend on the evolving precursor density).
	fast := !c.Stressing()
	occLag := 0.0 // seconds the occupancy trails `elapsed` on the fast path
	flush := func() {
		if occLag > 0 {
			ps.sweep(devs, occLag)
			occLag = 0
		}
	}

	elapsed := 0.0
	lastObserved := -1.0
	nextObserve := observeEvery
	for elapsed < dur {
		step := math.Min(maxSubstep, dur-elapsed)
		if observe != nil && observeEvery > 0 && elapsed+step > nextObserve {
			step = nextObserve - elapsed
		}
		if step > 0 {
			if fast {
				occLag += step
			} else {
				ps.sweep(devs, step)
			}
			for _, d := range devs {
				d.stepPermanent(c, emitAF, step)
				d.age += step
			}
			elapsed += step
		}
		if observe != nil && observeEvery > 0 && elapsed >= nextObserve {
			flush()
			observe(elapsed, d0.ShiftV())
			lastObserved = elapsed
			nextObserve += observeEvery
			if nextObserve <= elapsed {
				// observeEvery underflows at this magnitude; no further
				// boundary is representable.
				nextObserve = math.Inf(1)
			}
		} else if step <= 0 {
			// Degenerate zero-length sub-phase from observation splitting
			// (floating-point boundary collision): nothing can advance.
			break
		}
	}
	flush()
	if observe != nil && lastObserved < dur {
		observe(dur, d0.ShiftV())
	}
}

// meanOccupancy returns the device's weight-averaged occupancy in [0, 1],
// dispatching on storage. It matches cetGrid.meanOccupancy on the float64
// path bit-for-bit.
func (d *Device) meanOccupancy() float64 {
	if d.params.MaxShiftV <= 0 {
		return 0
	}
	return d.recoverable() / d.params.MaxShiftV
}

// stepPermanent advances the precursor/locked kinetics by dt seconds.
//
// During stress, occupied traps generate precursors at a rate scaled by the
// stress acceleration (saturating as the permanent pool fills); precursors
// convert to locked defects with a density-dependent hazard — the sparser
// the precursor population, the slower the locking, which is why in-time
// scheduled recovery eliminates the permanent component (Fig. 4); under
// recovery the emission acceleration anneals precursors (but never locked
// defects).
func (d *Device) stepPermanent(c Condition, emitAF, dt float64) {
	p := d.params
	var gen float64
	if c.Stressing() {
		occ := d.meanOccupancy()
		sat := 1 - (d.precursorV+d.lockedV)/p.PermanentMaxV
		if sat < 0 {
			sat = 0
		}
		gen = p.GenRateVPerSec * occ * sat * p.captureAccel(c)
	}
	density := d.precursorV / p.PrecursorScaleV
	if density > 3 {
		density = 3
	}
	convRate := density / p.ConvertTau
	annealRate := 0.0
	if !c.Stressing() {
		annealRate = emitAF / p.AnnealTau0
	}
	totalRate := convRate + annealRate
	// Linear ODE with frozen coefficients over the (short) substep:
	//   P1' = gen − totalRate·P1
	// For a near-zero removal rate the exponential form suffers
	// catastrophic cancellation (pInf explodes), so fall back to the
	// first-order expansion there.
	var p1New float64
	if totalRate*dt < 1e-9 {
		p1New = d.precursorV + (gen-totalRate*d.precursorV)*dt
	} else {
		pInf := gen / totalRate
		p1New = pInf + (d.precursorV-pInf)*math.Exp(-totalRate*dt)
	}
	// Mass balance: generated − ΔP1 splits between conversion and anneal
	// in proportion to their rates.
	generated := gen * dt
	removed := generated - (p1New - d.precursorV)
	if removed < 0 {
		removed = 0
	}
	if totalRate > 0 {
		d.lockedV += removed * convRate / totalRate
	}
	d.precursorV = p1New
}

// RecoveryFraction runs the paper's Table I protocol on a copy of the
// receiver: measure the shift now, recover under cond for dur seconds, and
// report (before − after)/before. The receiver is not modified.
func (d *Device) RecoveryFraction(cond Condition, dur float64) float64 {
	before := d.ShiftV()
	if before <= 0 {
		return 0
	}
	c := d.Clone()
	defer c.Release()
	c.Apply(cond, dur)
	return (before - c.ShiftV()) / before
}
