package fleet

// guardbandLimit is the delay-degradation fraction at which a chip is
// considered end-of-life for the remaining-lifetime estimate: a 10 %
// timing margin budget.
const guardbandLimit = 0.10

// ChipStatus is the queryable state of one chip: where it is in its
// lifetime, how worn it is, and how much lifetime the current degradation
// trend leaves. It carries no wall-clock fields on purpose — a restored
// fleet must answer status queries byte-identically to the fleet that was
// checkpointed.
type ChipStatus struct {
	ID     string `json:"id"`
	Policy string `json:"policy"`
	Corner string `json:"corner"`
	Rows   int    `json:"rows"`
	Cols   int    `json:"cols"`

	// Step/Steps locate the chip in its lifetime horizon.
	Step  int `json:"step"`
	Steps int `json:"steps"`
	// Suspended reports whether the chip is currently evicted to a
	// compact snapshot (it rehydrates transparently on next use).
	Suspended bool `json:"suspended"`

	// Wearout state after the last completed step.
	MaxShiftV      float64 `json:"max_shift_v"`
	MeanShiftV     float64 `json:"mean_shift_v"`
	WorstDelayNorm float64 `json:"worst_delay_norm"`
	MaxTempC       float64 `json:"max_temp_c"`

	// GuardbandFrac is the worst delay degradation seen so far;
	// GuardbandLimit the end-of-life budget it is judged against.
	GuardbandFrac  float64 `json:"guardband_frac"`
	GuardbandLimit float64 `json:"guardband_limit"`
	// RemainingSteps extrapolates the mean guardband growth rate to the
	// limit: 0 means the budget is already spent, -1 means no estimate yet
	// (no steps, or no measurable degradation).
	RemainingSteps int `json:"remaining_steps"`

	Availability     float64 `json:"availability"`
	RecoveryOverhead float64 `json:"recovery_overhead"`

	EMNucleated  bool `json:"em_nucleated"`
	EMFailedStep int  `json:"em_failed_step"`
}

// remainingSteps is the linear remaining-lifetime estimate.
func remainingSteps(guardband, limit float64, step int) int {
	switch {
	case guardband >= limit:
		return 0
	case step == 0 || guardband <= 0:
		return -1
	default:
		return int((limit - guardband) / (guardband / float64(step)))
	}
}

// statusOf derives a chip's status from its live simulator. Caller holds
// c.mu and guarantees c.sim != nil.
func (m *Manager) statusOf(c *chip) ChipStatus {
	p := c.sim.Progress()
	return ChipStatus{
		ID:     c.spec.ID,
		Policy: c.spec.Policy,
		Corner: c.spec.Corner,
		Rows:   c.spec.Rows,
		Cols:   c.spec.Cols,

		Step:  p.Step,
		Steps: p.Steps,

		MaxShiftV:      p.Last.MaxShiftV,
		MeanShiftV:     p.Last.MeanShiftV,
		WorstDelayNorm: p.Last.WorstDelayNorm,
		MaxTempC:       p.Last.MaxTempC,

		GuardbandFrac:  p.GuardbandFrac,
		GuardbandLimit: guardbandLimit,
		RemainingSteps: remainingSteps(p.GuardbandFrac, guardbandLimit, p.Step),

		Availability:     p.Availability,
		RecoveryOverhead: p.RecoveryOverhead,

		EMNucleated:  p.EMNucleated,
		EMFailedStep: p.EMFailedStep,
	}
}
