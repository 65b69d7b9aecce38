package fleet

import "sort"

// ScheduleSlot proposes one core for activated recovery.
type ScheduleSlot struct {
	// Core is the flat core index (row*cols + col).
	Core int `json:"core"`
	// SensedShiftV is the sensed BTI threshold shift driving the proposal.
	SensedShiftV float64 `json:"sensed_shift_v"`
}

// Schedule is a recovery recommendation for one chip: which cores have
// accumulated enough recoverable shift that scheduling them into activated
// recovery now pays off, worst first.
type Schedule struct {
	ID   string `json:"id"`
	Step int    `json:"step"`
	// ThresholdV is the sensed-shift threshold used (half the corner's
	// MaxShiftV).
	ThresholdV float64 `json:"threshold_v"`
	// MaxConcurrent caps the proposal so the fleet operator knows how much
	// parallel recovery capacity the schedule assumed.
	MaxConcurrent int `json:"max_concurrent"`
	// Cores lists the proposed cores, most degraded first (ties broken by
	// core index so the schedule is deterministic).
	Cores []ScheduleSlot `json:"cores"`
}

// Schedule computes a recovery recommendation from the chip's current
// sensed per-core shifts, rehydrating the chip if it was suspended.
func (m *Manager) Schedule(id string) (Schedule, error) {
	c, err := m.get(id)
	if err != nil {
		return Schedule{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.removed {
		return Schedule{}, ErrNotFound
	}
	if err := m.rehydrateLocked(c); err != nil {
		return Schedule{}, err
	}
	c.lastTouch = m.touch.Add(1)

	p := c.sim.Progress()
	// Propose cores past half the corner's saturation shift, at most a
	// quarter of the chip (at least one) at a time.
	threshold := 0.5 * c.model.Config().BTI.MaxShiftV
	maxConc := max(len(p.SensedShiftV)/4, 1)

	slots := make([]ScheduleSlot, 0, len(p.SensedShiftV))
	for i, shift := range p.SensedShiftV {
		if shift >= threshold {
			slots = append(slots, ScheduleSlot{Core: i, SensedShiftV: shift})
		}
	}
	sort.Slice(slots, func(i, j int) bool {
		if slots[i].SensedShiftV != slots[j].SensedShiftV {
			return slots[i].SensedShiftV > slots[j].SensedShiftV
		}
		return slots[i].Core < slots[j].Core
	})
	if len(slots) > maxConc {
		slots = slots[:maxConc]
	}
	return Schedule{
		ID:            c.spec.ID,
		Step:          p.Step,
		ThresholdV:    threshold,
		MaxConcurrent: maxConc,
		Cores:         slots,
	}, nil
}
