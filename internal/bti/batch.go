package bti

// BatchApply evolves every device in devs under condition c for dur seconds.
// It is equivalent to — and bit-identical with — calling d.Apply(c, dur) on
// each device in order, but devices sharing a CET grid are advanced
// together through one phase (see applyPhase and phaseSweeper):
//
//   - The kernel cache is consulted once per substep length for the whole
//     group instead of once per device.
//   - An uncached key is materialised once into a pooled scratch kernel and
//     every device sweeps through it — the per-device separable sweep would
//     redo the O(nc·ne) rate divisions for each device.
//
// Bit-identity holds because a materialised kernel and the separable sweep
// apply identical operations in identical order (the invariant documented in
// kernel.go), and devices are mutually independent, so regrouping the
// (device × substep) loop nest cannot change any device's trajectory.
//
// Devices must be distinct: a device listed twice would see its permanent
// kinetics interleaved at substep rather than phase granularity. The call is
// not safe for concurrent use of the listed devices.
func BatchApply(devs []*Device, c Condition, dur float64) {
	if dur <= 0 || len(devs) == 0 {
		return
	}
	if len(devs) == 1 {
		devs[0].Apply(c, dur)
		return
	}
	// Group by grid in first-seen order. Grid identity implies equal
	// Params — the shared cache keys grids by Params, and a private grid is
	// only ever shared among clones — so each group has one pair of
	// acceleration factors. Storage may differ within a group: every sweep
	// dispatches on each device's storage.
	groups := make(map[*cetGrid][]*Device, 4)
	order := make([]*cetGrid, 0, 4)
	for _, d := range devs {
		if _, ok := groups[d.grid]; !ok {
			order = append(order, d.grid)
		}
		groups[d.grid] = append(groups[d.grid], d)
	}
	for _, g := range order {
		group := groups[g]
		if len(group) > 1 {
			metBatchGroups.Inc()
			metBatchDevices.Add(uint64(len(group)))
		}
		applyPhase(group, c, dur, 0, nil)
	}
}
