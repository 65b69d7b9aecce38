// Package scenario is the structure-description layer between the wearout
// physics (internal/bti) and the experiment/campaign layers: a Scenario
// Description declares a victim structure's device topology (which devices
// exist and how they group onto shared-Params CET grids), each device's
// duty/stress profile, a floorplan/thermal site mapping, a failure-criterion
// readout (critical-path delay, bit-flip margin, ...) and an optional
// seeded process-variation model. The Instance engine in instance.go ages
// any described structure under a healing schedule without knowing what the
// structure is — the paper's recovery-activation argument is
// structure-agnostic, and this layer is where that shows.
//
// The many-core chip is not a scenario: internal/core simulates it in
// full (thermal grid, PDN and EM dynamics), which a static description
// could only approximate. The registered structures (decoder, DNN weight
// memory, multiplier) become campaign experiments with no changes to core.
package scenario

import (
	"fmt"
	"sort"

	"deepheal/internal/bti"
	"deepheal/internal/campaign"
	"deepheal/internal/workload"
)

// Group is a set of identically parameterised devices: one nominal bti
// parameter set and the three environments its members ever see. Grouping
// is what keeps grid sharing intact — every unvaried member of a group
// acquires the same cached CET grid, and BatchApply sweeps same-condition
// members in one pass.
type Group struct {
	Name   string
	Params bti.Params
	// Stress is applied for the duty-weighted fraction of each step; Idle
	// covers the remainder of the step; Heal replaces whole steps on the
	// healing schedule. Heal must not be a stressing condition.
	Stress, Idle, Heal bti.Condition
}

// Site is one floorplan location: devices placed there see every condition
// temperature shifted by the site's offset. Discrete sites (rather than a
// per-device temperature field) keep the thermal mapping batchable — all
// same-site, same-duty devices of a group evolve in one BatchApply sweep.
type Site struct {
	Name string
	// TempOffsetC shifts the junction temperature in degrees Celsius
	// relative to the group's declared conditions.
	TempOffsetC float64
}

// DeviceSpec declares one device of the structure.
type DeviceSpec struct {
	Name string
	// Group and Site index into the Description's Groups and Sites.
	Group, Site int
	// Duty is the per-step stress duty profile: At(step) is the fraction
	// of the step the device spends under its group's Stress condition.
	Duty workload.Profile
	// Weight scales the device's contribution in the readout (e.g. the
	// number of identical series stages it stands for). Zero means 1 for
	// path readouts; margin readouts treat zero-weight devices as
	// non-critical (excluded).
	Weight float64
}

// Description declares a complete scenario. It is immutable after
// registration and shared by every Instance built from it.
type Description struct {
	// Name is the registry key; Title the human description.
	Name, Title string
	// StepSeconds is the accelerated-equivalent scheduling quantum.
	StepSeconds float64
	Groups      []Group
	Sites       []Site
	Devices     []DeviceSpec
	Readout     Readout
	// Variation, when non-zero, draws each device's Params around its
	// group nominal (seeded per Instance) — the process-variation Monte
	// Carlo axis.
	Variation bti.Variation
}

// Validate reports whether the description is well-formed.
func (d *Description) Validate() error {
	switch {
	case d.Name == "":
		return fmt.Errorf("scenario: description needs a name")
	case d.StepSeconds <= 0:
		return fmt.Errorf("scenario %s: step seconds must be positive", d.Name)
	case len(d.Groups) == 0 || len(d.Devices) == 0:
		return fmt.Errorf("scenario %s: needs at least one group and one device", d.Name)
	case len(d.Sites) == 0:
		return fmt.Errorf("scenario %s: needs at least one site", d.Name)
	case d.Readout == nil:
		return fmt.Errorf("scenario %s: needs a readout", d.Name)
	}
	if err := d.Variation.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", d.Name, err)
	}
	for gi, g := range d.Groups {
		if g.Name == "" {
			return fmt.Errorf("scenario %s: group %d unnamed", d.Name, gi)
		}
		if err := g.Params.Validate(); err != nil {
			return fmt.Errorf("scenario %s: group %s: %w", d.Name, g.Name, err)
		}
		if !g.Stress.Stressing() {
			return fmt.Errorf("scenario %s: group %s stress condition %v does not stress", d.Name, g.Name, g.Stress)
		}
		if g.Idle.Stressing() || g.Heal.Stressing() {
			return fmt.Errorf("scenario %s: group %s idle/heal conditions must not stress", d.Name, g.Name)
		}
		for _, c := range []bti.Condition{g.Stress, g.Idle, g.Heal} {
			for _, s := range d.Sites {
				if !siteCond(c, s).Temp.Valid() {
					return fmt.Errorf("scenario %s: group %s condition %v unphysical at site %s", d.Name, g.Name, c, s.Name)
				}
			}
		}
	}
	for di, dev := range d.Devices {
		switch {
		case dev.Name == "":
			return fmt.Errorf("scenario %s: device %d unnamed", d.Name, di)
		case dev.Group < 0 || dev.Group >= len(d.Groups):
			return fmt.Errorf("scenario %s: device %s group %d out of range", d.Name, dev.Name, dev.Group)
		case dev.Site < 0 || dev.Site >= len(d.Sites):
			return fmt.Errorf("scenario %s: device %s site %d out of range", d.Name, dev.Name, dev.Site)
		case dev.Duty == nil:
			return fmt.Errorf("scenario %s: device %s has no duty profile", d.Name, dev.Name)
		case dev.Weight < 0:
			return fmt.Errorf("scenario %s: device %s weight %g negative", d.Name, dev.Name, dev.Weight)
		}
	}
	return nil
}

// HashParts flattens everything that determines a run's result — topology,
// parameters, conditions, sites, duty traces (sampled semantically over the
// horizon), readout constants, variation model and run shape — into parts
// for campaign.Hash. Two scenario points hash equal iff an Instance run
// would be identical, which is the determinism contract memoisation,
// journal resume and the distributed executor all rely on.
func (d *Description) HashParts(steps, healEvery int, seed int64) []any {
	parts := []any{"scenario/run", d.Name, d.StepSeconds, d.Variation,
		d.Readout.Signature(), steps, healEvery, seed}
	for _, g := range d.Groups {
		parts = append(parts, g)
	}
	for _, s := range d.Sites {
		parts = append(parts, s)
	}
	for _, dev := range d.Devices {
		duty := dev.Duty
		parts = append(parts, dev.Name, dev.Group, dev.Site, dev.Weight,
			campaign.SampledSeries(duty.Name(), steps, func(i int) float64 { return duty.At(i) }))
	}
	return parts
}

// registry holds the registered descriptions. Registration happens in
// package init functions; lookups start only after init completes, so plain
// map access is safe.
var registry = map[string]*Description{}

// Register adds a description to the zoo. It panics on duplicates or
// malformed descriptions: both are programming errors in a scenario file,
// and init-time is the right moment to hear about them.
func Register(d *Description) {
	if err := d.Validate(); err != nil {
		panic(err)
	}
	if _, dup := registry[d.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", d.Name))
	}
	registry[d.Name] = d
}

// Lookup finds a registered scenario by name.
func Lookup(name string) (*Description, bool) {
	d, ok := registry[name]
	return d, ok
}

// Names lists the registered scenarios in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
