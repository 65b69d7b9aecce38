package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"deepheal/internal/engine"
)

// StatefulPolicy is implemented by policies whose Plan keeps internal state
// that must survive a checkpoint (e.g. DeepHealing's per-core recovery
// countdowns). Stateless policies need not implement it.
type StatefulPolicy interface {
	Policy
	// SnapshotState serialises the policy's planning state.
	SnapshotState() ([]byte, error)
	// RestoreState rewinds the policy to a SnapshotState.
	RestoreState(data []byte) error
}

// simState is the simulator's own cross-step state: the resume point, the
// pending observation, the mode history and the report accumulators.
// Config fingerprints guard against restoring into a different system.
type simState struct {
	Step          int
	Rows, Cols    int
	Steps         int
	Segments      int
	PolicyName    string
	PolicyState   []byte // nil when the policy is stateless
	Lean          bool   // series holds only the latest StepStats
	LastTemps     []float64
	SensedShift   []float64
	SensedEMDelta float64
	PrevModes     []CoreMode
	Series        []StepStats
	DemandedSum   float64
	DeliveredSum  float64
	RecoverySteps int
	Guardband     float64
	EMNucleated   bool
	EMFailedStep  int
}

// Component names inside the system snapshot.
const (
	snapSim      = "core/sim"
	snapThermal  = "thermal/grid"
	snapPDN      = "pdn/grid"
	snapEMSensor = "sensor/em"
)

func snapCore(i int) string     { return fmt.Sprintf("bti/core/%d", i) }
func snapROSensor(i int) string { return fmt.Sprintf("sensor/ro/%d", i) }
func snapSegment(k int) string  { return fmt.Sprintf("em/seg/%d", k) }

// wantSeriesLen is how many StepStats a consistent snapshot carries: every
// step in full mode, just the latest (if any) in lean mode.
func wantSeriesLen(state simState) int {
	if state.Lean && state.Step > 1 {
		return 1
	}
	return state.Step
}

// Snapshot checkpoints the whole system — every BTI core, EM segment, the
// thermal and power grids, all sensor noise streams, the policy's planning
// state and the report accumulators — into one versioned blob. It must be
// taken on a step boundary (never from inside a hook).
//
// The numerous BTI, EM and sensor components use their own dense codecs;
// the grids and the sim state stay gob (one each per chip). The engine
// container compresses everything with DEFLATE at BestSpeed through a
// pooled writer, cheap enough to take on every eviction, which is what
// lets a fleet suspend evicted chips to in-memory blobs. Size is guarded
// by a regression test against a committed byte budget.
func (s *Simulator) Snapshot() ([]byte, error) {
	var start time.Time
	if metCkptSaveSeconds != nil {
		start = time.Now()
	}
	grid, err := s.grid.Snapshot()
	if err != nil {
		return nil, err
	}
	power, err := s.power.Snapshot()
	if err != nil {
		return nil, err
	}
	// Component names are distinct by construction.
	snap := engine.NewSystemSnapshot(s.step)
	for i, dev := range s.cores {
		snap.Components[snapCore(i)] = dev.Snapshot()
	}
	for i, ro := range s.sensors {
		snap.Components[snapROSensor(i)] = ro.Snapshot()
	}
	for k, seg := range s.segments {
		snap.Components[snapSegment(k)] = seg.Snapshot()
	}
	snap.Components[snapEMSensor] = s.emSensor.Snapshot()
	snap.Components[snapThermal] = grid
	snap.Components[snapPDN] = power

	state := simState{
		Step:          s.step,
		Rows:          s.cfg.Rows,
		Cols:          s.cfg.Cols,
		Steps:         s.cfg.Steps,
		Segments:      len(s.segments),
		PolicyName:    s.policy.Name(),
		Lean:          s.opts.LeanSeries,
		LastTemps:     s.lastTemps,
		SensedShift:   s.sensedShift,
		SensedEMDelta: s.sensedEMDelta,
		PrevModes:     s.prevModes,
		Series:        s.series,
		DemandedSum:   s.demandedSum,
		DeliveredSum:  s.deliveredSum,
		RecoverySteps: s.recoverySteps,
		Guardband:     s.guardband,
		EMNucleated:   s.emNucleated,
		EMFailedStep:  s.emFailedStep,
	}
	if sp, ok := s.policy.(StatefulPolicy); ok {
		ps, err := sp.SnapshotState()
		if err != nil {
			return nil, fmt.Errorf("core: snapshot policy %q: %w", s.policy.Name(), err)
		}
		state.PolicyState = ps
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(state); err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	snap.Components[snapSim] = buf.Bytes()
	blob, err := snap.Encode()
	if err != nil {
		return nil, err
	}
	metCkptSaves.Inc()
	metCkptLastBytes.Set(float64(len(blob)))
	metCkptBytesWritten.Add(uint64(len(blob)))
	if metCkptSaveSeconds != nil {
		metCkptSaveSeconds.Observe(time.Since(start).Seconds())
	}
	return blob, nil
}

// Restore rewinds a freshly built simulator (same Config, same policy kind)
// to a Snapshot. A subsequent Run continues the interrupted lifetime and
// produces a Report bit-identical to an uninterrupted run.
func (s *Simulator) Restore(data []byte) error {
	var start time.Time
	if metCkptRestSeconds != nil {
		start = time.Now()
	}
	snap, err := engine.DecodeSystemSnapshot(data)
	if err != nil {
		return err
	}
	blob, err := snap.Bytes(snapSim)
	if err != nil {
		return err
	}
	var state simState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&state); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	switch {
	case state.Rows != s.cfg.Rows || state.Cols != s.cfg.Cols:
		return fmt.Errorf("core: restore: snapshot is a %dx%d system, simulator is %dx%d",
			state.Rows, state.Cols, s.cfg.Rows, s.cfg.Cols)
	case state.Steps != s.cfg.Steps:
		return fmt.Errorf("core: restore: snapshot horizon %d, simulator %d", state.Steps, s.cfg.Steps)
	case state.Segments != len(s.segments):
		return fmt.Errorf("core: restore: snapshot has %d segments, simulator %d", state.Segments, len(s.segments))
	case state.PolicyName != s.policy.Name():
		return fmt.Errorf("core: restore: snapshot ran policy %q, simulator runs %q", state.PolicyName, s.policy.Name())
	case state.Lean != s.opts.LeanSeries:
		return fmt.Errorf("core: restore: snapshot lean-series mode %v, simulator %v", state.Lean, s.opts.LeanSeries)
	case state.Step < 0 || state.Step > s.cfg.Steps || len(state.Series) != wantSeriesLen(state):
		return fmt.Errorf("core: restore: inconsistent resume point (step %d, %d recorded)", state.Step, len(state.Series))
	case len(state.LastTemps) != len(s.lastTemps) || len(state.SensedShift) != len(s.sensedShift) ||
		state.PrevModes != nil && len(state.PrevModes) != len(s.cores):
		return fmt.Errorf("core: restore: per-core state sized %d/%d/%d for %d cores",
			len(state.LastTemps), len(state.SensedShift), len(state.PrevModes), len(s.cores))
	}
	if state.PolicyState != nil {
		sp, ok := s.policy.(StatefulPolicy)
		if !ok {
			return fmt.Errorf("core: restore: snapshot carries state for policy %q but it cannot restore state", state.PolicyName)
		}
		if err := sp.RestoreState(state.PolicyState); err != nil {
			return fmt.Errorf("core: restore policy %q: %w", state.PolicyName, err)
		}
	}

	restore := func(name string, restore func([]byte) error) error {
		data, err := snap.Bytes(name)
		if err != nil {
			return err
		}
		if err := restore(data); err != nil {
			return fmt.Errorf("core: restore %q: %w", name, err)
		}
		return nil
	}
	for i, dev := range s.cores {
		if err := restore(snapCore(i), dev.Restore); err != nil {
			return err
		}
	}
	for i, ro := range s.sensors {
		if err := restore(snapROSensor(i), ro.Restore); err != nil {
			return err
		}
	}
	for k, seg := range s.segments {
		if err := restore(snapSegment(k), seg.Restore); err != nil {
			return err
		}
	}
	for _, c := range []struct {
		name    string
		restore func([]byte) error
	}{{snapEMSensor, s.emSensor.Restore}, {snapThermal, s.grid.Restore}, {snapPDN, s.power.Restore}} {
		if err := restore(c.name, c.restore); err != nil {
			return err
		}
	}

	s.step = state.Step
	s.lastTemps = state.LastTemps
	s.sensedShift = state.SensedShift
	s.sensedEMDelta = state.SensedEMDelta
	s.prevModes = state.PrevModes
	s.series = state.Series
	s.demandedSum = state.DemandedSum
	s.deliveredSum = state.DeliveredSum
	s.recoverySteps = state.RecoverySteps
	s.guardband = state.Guardband
	s.emNucleated = state.EMNucleated
	s.emFailedStep = state.EMFailedStep
	metCkptRestores.Inc()
	if metCkptRestSeconds != nil {
		metCkptRestSeconds.Observe(time.Since(start).Seconds())
	}
	return nil
}
