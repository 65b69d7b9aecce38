package scenario

import (
	"context"
	"fmt"

	"deepheal/internal/bti"
	"deepheal/internal/mathx"
	"deepheal/internal/rngx"
	"deepheal/internal/units"
)

// Instance is one aged copy of a described structure: the mutable device
// states plus the immutable Description they were built from. Construction
// and stepping are deterministic in (Description, seed), which is what lets
// the campaign layer hash scenario runs by their declared inputs.
type Instance struct {
	desc    *Description
	devices []*bti.Device
	fresh   float64
}

// New builds the structure's devices. Groups with process variation draw
// per-device Params through bti.NewPopulation — one rng stream per
// group, split from seed, so adding a group never perturbs another group's
// draws — which routes one-shot varied grids away from the shared cache
// (the PR 7 grid-churn rule). Unvaried groups acquire the shared cached
// grid for their Params, so a thousand instances of the same scenario
// discretise one grid.
func New(d *Description, seed int64) (*Instance, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	in := &Instance{
		desc:    d,
		devices: make([]*bti.Device, len(d.Devices)),
	}
	varied := d.Variation != (bti.Variation{})
	root := rngx.New(seed)
	for gi, g := range d.Groups {
		var members []int
		for di, dev := range d.Devices {
			if dev.Group == gi {
				members = append(members, di)
			}
		}
		if len(members) == 0 {
			return nil, fmt.Errorf("scenario %s: group %s has no devices", d.Name, g.Name)
		}
		if varied {
			pop, err := bti.NewPopulation(g.Params, d.Variation, len(members), root.Split(int64(gi)))
			if err != nil {
				return nil, fmt.Errorf("scenario %s: group %s: %w", d.Name, g.Name, err)
			}
			for k, di := range members {
				in.devices[di] = pop.Device(k)
			}
			continue
		}
		for _, di := range members {
			dev, err := bti.NewDevice(g.Params)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: group %s: %w", d.Name, g.Name, err)
			}
			in.devices[di] = dev
		}
	}
	in.fresh = d.Readout.Metric(d, make([]float64, len(d.Devices)))
	return in, nil
}

// siteCond shifts a condition's junction temperature to a site's location.
// A Celsius offset is a Kelvin offset, so this is a plain addition.
func siteCond(c bti.Condition, s Site) bti.Condition {
	c.Temp = units.Temperature(c.Temp.K() + s.TempOffsetC)
	return c
}

// bucket is one BatchApply sweep: same group, same site, same utilisation.
type bucket struct {
	site int
	util float64
	devs []*bti.Device
}

// step ages every device through one duty step: each device spends
// util·StepSeconds under its group's (site-shifted) stress condition and
// the remainder idling. Devices sharing (group, site, util) evolve in one
// BatchApply sweep — bit-identical to a per-device loop but one kernel
// resolution per bucket — and buckets run in first-device order, so the
// sweep order is deterministic.
func (in *Instance) step(stepIdx int) {
	dt := in.desc.StepSeconds
	for gi := range in.desc.Groups {
		g := &in.desc.Groups[gi]
		var buckets []*bucket
		for di, dev := range in.desc.Devices {
			if dev.Group != gi {
				continue
			}
			util := mathx.Clamp(dev.Duty.At(stepIdx), 0, 1)
			var b *bucket
			for _, cand := range buckets {
				if cand.site == dev.Site && cand.util == util {
					b = cand
					break
				}
			}
			if b == nil {
				b = &bucket{site: dev.Site, util: util}
				buckets = append(buckets, b)
			}
			b.devs = append(b.devs, in.devices[di])
		}
		for _, b := range buckets {
			site := in.desc.Sites[b.site]
			if b.util > 0 {
				bti.BatchApply(b.devs, siteCond(g.Stress, site), b.util*dt)
			}
			if b.util < 1 {
				bti.BatchApply(b.devs, siteCond(g.Idle, site), (1-b.util)*dt)
			}
		}
	}
}

// heal runs one whole step of each group's healing condition — the
// structure is paused (or its function migrated) while recovery is active,
// which is exactly the scheduling overhead the ablations quantify.
func (in *Instance) heal() {
	dt := in.desc.StepSeconds
	for gi := range in.desc.Groups {
		g := &in.desc.Groups[gi]
		var buckets []*bucket
		for di, dev := range in.desc.Devices {
			if dev.Group != gi {
				continue
			}
			var b *bucket
			for _, cand := range buckets {
				if cand.site == dev.Site {
					b = cand
					break
				}
			}
			if b == nil {
				b = &bucket{site: dev.Site}
				buckets = append(buckets, b)
			}
			b.devs = append(b.devs, in.devices[di])
		}
		for _, b := range buckets {
			bti.BatchApply(b.devs, siteCond(g.Heal, in.desc.Sites[b.site]), dt)
		}
	}
}

// Shifts returns every device's current threshold shift, indexed like
// Description.Devices.
func (in *Instance) Shifts() []float64 {
	out := make([]float64, len(in.devices))
	for i, dev := range in.devices {
		out[i] = dev.ShiftV()
	}
	return out
}

// Fresh is the readout metric of the unaged structure.
func (in *Instance) Fresh() float64 { return in.fresh }

// Readout evaluates the failure criterion on the current state.
func (in *Instance) Readout() float64 {
	return in.desc.Readout.Metric(in.desc, in.Shifts())
}

// RunResult is the journalable outcome of one scenario run.
type RunResult struct {
	// Steps is the simulated horizon; HealSteps how many of them were
	// spent healing instead of working.
	Steps, HealSteps int
	// Fresh and Metric are the readout before and after aging.
	Fresh, Metric float64
	// MeanShiftV / WorstShiftV summarise the device shift distribution.
	MeanShiftV, WorstShiftV float64
}

// HealOverheadFrac is the fraction of the horizon spent healing.
func (r *RunResult) HealOverheadFrac() float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.HealSteps) / float64(r.Steps)
}

// Run ages the instance over steps scheduling quanta. When healEvery > 0,
// every healEvery-th step is given to the group healing conditions instead
// of the workload — the scenario-level analogue of the chip scheduler's
// recovery slots; healEvery <= 0 disables healing. The caller owns the
// instance: Run may be invoked once per fresh instance for reproducible
// results.
func (in *Instance) Run(ctx context.Context, steps, healEvery int) (*RunResult, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("scenario %s: steps %d must be positive", in.desc.Name, steps)
	}
	res := &RunResult{Steps: steps, Fresh: in.fresh}
	for s := 0; s < steps; s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if healEvery > 0 && s%healEvery == healEvery-1 {
			in.heal()
			res.HealSteps++
			continue
		}
		in.step(s)
	}
	shifts := in.Shifts()
	res.Metric = in.desc.Readout.Metric(in.desc, shifts)
	res.MeanShiftV = mathx.Mean(shifts)
	_, res.WorstShiftV = mathx.MinMax(shifts)
	return res, nil
}
