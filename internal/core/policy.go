package core

import (
	"encoding/binary"
	"fmt"

	"deepheal/internal/codec"
)

// CoreMode is the per-step operating mode the policy assigns to a core.
type CoreMode int

// Core modes.
const (
	// ModeRun executes the core's workload; idle fractions of the step
	// stay powered (stress continues when gating is unavailable).
	ModeRun CoreMode = iota + 1
	// ModeGated executes the workload but power-gates idle fractions of
	// the step, enabling passive BTI recovery.
	ModeGated
	// ModeRecover takes the core offline for the step and applies the
	// negative-bias BTI active recovery through the assist circuitry. The
	// core's work must be migrated or dropped.
	ModeRecover
)

// String names the mode.
func (m CoreMode) String() string {
	switch m {
	case ModeRun:
		return "run"
	case ModeGated:
		return "gated"
	case ModeRecover:
		return "recover"
	default:
		return fmt.Sprintf("CoreMode(%d)", int(m))
	}
}

// Observation is what a policy sees at the start of each step: sensor data
// only — true wearout state is hidden, as it would be on silicon.
type Observation struct {
	Step int
	// SensedShiftV is the per-core RO-sensor estimate of ΔVth.
	SensedShiftV []float64
	// SensedEMDeltaOhm is the EM sensor estimate for the worst grid segment.
	SensedEMDeltaOhm float64
	// Demand is the per-core requested utilisation for this step.
	Demand []float64
	// TileTempC is the per-tile temperature at the end of the previous
	// step (thermal sensors), which heat-aware policies use to place
	// recovery intervals next to hot neighbours (the paper's Fig. 12a).
	TileTempC []float64
	// Rows and Cols describe the core grid layout for neighbourhood
	// reasoning.
	Rows, Cols int
}

// neighbourHeat returns the mean temperature of core i's grid neighbours,
// its own temperature when the layout is unknown, or 0 when no thermal
// data is available at all.
func (o Observation) neighbourHeat(i int) float64 {
	if i < 0 || i >= len(o.TileTempC) {
		return 0
	}
	if o.Rows*o.Cols != len(o.TileTempC) {
		return o.TileTempC[i]
	}
	r, c := i/o.Cols, i%o.Cols
	sum, n := 0.0, 0
	for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		nr, nc := r+d[0], c+d[1]
		if nr < 0 || nr >= o.Rows || nc < 0 || nc >= o.Cols {
			continue
		}
		sum += o.TileTempC[nr*o.Cols+nc]
		n++
	}
	if n == 0 {
		return o.TileTempC[i]
	}
	return sum / float64(n)
}

// Decision is the policy's plan for one step.
type Decision struct {
	// Modes assigns a CoreMode per core.
	Modes []CoreMode
	// EMReverse flips the assist circuitry into EM Active Recovery for the
	// step: all grid currents reverse while the system keeps running.
	EMReverse bool
}

// Policy plans one step at a time. Implementations may keep internal state;
// a fresh policy value must be used per simulation run.
type Policy interface {
	Name() string
	Plan(obs Observation) Decision
}

// NoRecovery is the worst-case baseline: cores stay powered and stressed
// for their whole life, the situation static guardbands are sized for.
type NoRecovery struct{}

var _ Policy = (*NoRecovery)(nil)

// Name implements Policy.
func (*NoRecovery) Name() string { return "no-recovery" }

// Plan implements Policy.
func (*NoRecovery) Plan(obs Observation) Decision {
	modes := make([]CoreMode, len(obs.Demand))
	for i := range modes {
		modes[i] = ModeRun
	}
	return Decision{Modes: modes}
}

// PassiveRecovery power-gates idle fractions of every step — the
// conventional approach the paper uses as its recovery baseline (slow,
// cannot touch the permanent component).
type PassiveRecovery struct{}

var _ Policy = (*PassiveRecovery)(nil)

// Name implements Policy.
func (*PassiveRecovery) Name() string { return "passive" }

// Plan implements Policy.
func (*PassiveRecovery) Plan(obs Observation) Decision {
	modes := make([]CoreMode, len(obs.Demand))
	for i := range modes {
		modes[i] = ModeGated
	}
	return Decision{Modes: modes}
}

// DeepHealing is the paper's proposal: sensor-driven BTI active-recovery
// intervals rotated across cores (at most MaxConcurrent cores offline at a
// time, their work migrated to neighbours whose heat then accelerates the
// recovery), plus periodic EM active-recovery intervals scheduled *before*
// void nucleation — the "economic" strategy of Fig. 7/12.
type DeepHealing struct {
	// ShiftThresholdV triggers a core's recovery interval.
	ShiftThresholdV float64
	// RecoverySteps is the length of one BTI recovery interval.
	RecoverySteps int
	// MaxConcurrent bounds how many cores recover simultaneously.
	MaxConcurrent int
	// EMPeriod and EMReverseSteps schedule the periodic reverse-current
	// intervals: every EMPeriod steps, EMReverseSteps steps run reversed.
	EMPeriod, EMReverseSteps int
	// EMDeltaThresholdOhm arms the reactive fallback: if the EM sensor
	// reports at least this much segment-resistance increase (a void has
	// started growing despite the proactive schedule), the reverse duty is
	// doubled until the sensor clears. 0 disables the reaction.
	EMDeltaThresholdOhm float64

	remaining []int // per-core steps left in the current recovery interval
}

var _ Policy = (*DeepHealing)(nil)

// DefaultDeepHealing returns the tuned scheduling parameters used in the
// paper reproduction.
func DefaultDeepHealing() *DeepHealing {
	return &DeepHealing{
		ShiftThresholdV:     0.010,
		RecoverySteps:       2,
		MaxConcurrent:       4,
		EMPeriod:            10,
		EMReverseSteps:      3,
		EMDeltaThresholdOhm: 0.01,
	}
}

// Name implements Policy.
func (*DeepHealing) Name() string { return "deep-healing" }

// deepHealingMagic leads a DeepHealing state payload.
const deepHealingMagic = 'D'

// SnapshotState implements StatefulPolicy: the per-core recovery countdowns
// are the only planning state, written as a count then signed varints.
func (p *DeepHealing) SnapshotState() []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64*(1+len(p.remaining)))
	buf = append(buf, deepHealingMagic)
	buf = binary.AppendUvarint(buf, uint64(len(p.remaining)))
	for _, v := range p.remaining {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

// RestoreState implements StatefulPolicy. No countdowns restore as nil, so
// the next Plan sizes them for the chip, as it does on a fresh policy.
func (p *DeepHealing) RestoreState(data []byte) error {
	r := codec.NewReader(data, "core: deep-healing restore")
	r.Magic(deepHealingMagic)
	var remaining []int
	if n := r.Len(1); n > 0 {
		remaining = make([]int, n)
		for i := range remaining {
			remaining[i] = int(r.Varint())
		}
	}
	if err := r.Close(); err != nil {
		return err
	}
	p.remaining = remaining
	return nil
}

// Plan implements Policy.
func (p *DeepHealing) Plan(obs Observation) Decision {
	n := len(obs.Demand)
	if p.remaining == nil {
		p.remaining = make([]int, n)
	}
	if len(p.remaining) != n {
		// Restored countdowns for another core count: plan nothing, so the
		// simulator reports the mode-count mismatch instead of panicking.
		return Decision{}
	}
	modes := make([]CoreMode, n)
	recovering := 0
	for i := range modes {
		modes[i] = ModeGated
		if p.remaining[i] > 0 {
			p.remaining[i]--
			modes[i] = ModeRecover
			recovering++
		}
	}
	// Start new recovery intervals on the most-aged cores above threshold.
	for recovering < p.MaxConcurrent {
		worst, worstShift := -1, p.ShiftThresholdV
		for i := range modes {
			if modes[i] == ModeRecover {
				continue
			}
			if obs.SensedShiftV[i] >= worstShift {
				worst, worstShift = i, obs.SensedShiftV[i]
			}
		}
		if worst < 0 {
			break
		}
		modes[worst] = ModeRecover
		p.remaining[worst] = p.RecoverySteps - 1
		recovering++
	}
	// Proactive EM recovery: a periodic reverse interval, scheduled from
	// the start of life so voids never nucleate. If the EM sensor
	// nevertheless reports a growing void, double the reverse duty until
	// it heals (the paper's "from when the void nucleation happens"
	// fallback).
	reverse := false
	if p.EMPeriod > 0 && p.EMReverseSteps > 0 {
		steps := p.EMReverseSteps
		if p.EMDeltaThresholdOhm > 0 && obs.SensedEMDeltaOhm >= p.EMDeltaThresholdOhm {
			steps *= 2
		}
		if steps > p.EMPeriod {
			steps = p.EMPeriod
		}
		reverse = obs.Step%p.EMPeriod < steps
	}
	return Decision{Modes: modes, EMReverse: reverse}
}
