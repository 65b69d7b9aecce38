package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"deepheal/internal/codec"
	"deepheal/internal/engine"
)

// StatefulPolicy is implemented by policies whose Plan keeps internal state
// that must survive a checkpoint (e.g. DeepHealing's per-core recovery
// countdowns). Stateless policies need not implement it.
type StatefulPolicy interface {
	Policy
	// SnapshotState serialises the policy's planning state.
	SnapshotState() []byte
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
	PrevModes     []CoreMode // nil before the first step
	Series        []StepStats
	DemandedSum   float64
	DeliveredSum  float64
	RecoverySteps int
	Guardband     float64
	EMNucleated   bool
	EMFailedStep  int
}

// simStateMagic leads the core/sim payload.
const simStateMagic = 'C'

// stepStatsMinSize is the fewest bytes one encoded StepStats takes: two
// one-byte uvarints, seven floats and a flag.
const stepStatsMinSize = 2 + 7*8 + 1

// encode frames the state as: magic; uvarint step, rows, cols, horizon and
// segment count; the length-prefixed policy name and policy state; the lean
// flag; the per-core temperatures and sensed shifts; the sensed EM delta;
// the length-prefixed mode bytes; the length-prefixed series; then the
// report accumulators. An empty policy state or mode list is written as
// length 0 and decodes as nil, which is what Restore reads as "none".
func (st *simState) encode() []byte {
	size := 64 + len(st.PolicyName) + len(st.PolicyState) + 8*(len(st.LastTemps)+len(st.SensedShift)) +
		len(st.PrevModes) + len(st.Series)*(7*8+1+2*binary.MaxVarintLen64) + 8*binary.MaxVarintLen64
	buf := make([]byte, 0, size)
	buf = append(buf, simStateMagic)
	for _, v := range []int{st.Step, st.Rows, st.Cols, st.Steps, st.Segments} {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.PolicyName)))
	buf = append(buf, st.PolicyName...)
	buf = binary.AppendUvarint(buf, uint64(len(st.PolicyState)))
	buf = append(buf, st.PolicyState...)
	buf = codec.AppendBool(buf, st.Lean)
	buf = codec.AppendFloats(buf, st.LastTemps)
	buf = codec.AppendFloats(buf, st.SensedShift)
	buf = codec.AppendFloat(buf, st.SensedEMDelta)
	buf = binary.AppendUvarint(buf, uint64(len(st.PrevModes)))
	for _, m := range st.PrevModes {
		buf = append(buf, byte(m))
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.Series)))
	for _, x := range st.Series {
		buf = binary.AppendUvarint(buf, uint64(x.Step))
		for _, v := range []float64{x.MaxShiftV, x.MeanShiftV, x.WorstDelayNorm, x.EMMaxProgress, x.EMDeltaOhm, x.MaxTempC} {
			buf = codec.AppendFloat(buf, v)
		}
		buf = binary.AppendUvarint(buf, uint64(x.Recovering))
		buf = codec.AppendBool(buf, x.EMReverse)
		buf = codec.AppendFloat(buf, x.DeliveredFrac)
	}
	buf = codec.AppendFloat(buf, st.DemandedSum)
	buf = codec.AppendFloat(buf, st.DeliveredSum)
	buf = binary.AppendUvarint(buf, uint64(st.RecoverySteps))
	buf = codec.AppendFloat(buf, st.Guardband)
	buf = codec.AppendBool(buf, st.EMNucleated)
	return binary.AppendVarint(buf, int64(st.EMFailedStep))
}

// decodeSimState parses an encode result for a chip with the given number
// of cores. The per-core slices must match that count; every float must be
// finite except the delay margins, which reach +Inf once a core's shift
// eats the whole voltage headroom.
func decodeSimState(data []byte, cores int) (simState, error) {
	r := codec.NewReader(data, "core: restore sim state")
	r.Magic(simStateMagic)
	st := simState{Step: r.Int(), Rows: r.Int(), Cols: r.Int(), Steps: r.Int(), Segments: r.Int()}
	st.PolicyName = string(r.Bytes(r.Len(1)))
	if n := r.Len(1); n > 0 {
		st.PolicyState = r.Bytes(n)
	}
	st.Lean = r.Bool()
	st.LastTemps = r.Floats(cores)
	st.SensedShift = r.Floats(cores)
	st.SensedEMDelta = r.Float()
	if n := r.Len(1); n > 0 {
		if n != cores {
			r.Fail("%d previous modes for %d cores", n, cores)
		}
		st.PrevModes = make([]CoreMode, n)
		for i, b := range r.Bytes(n) {
			if m := CoreMode(b); m == ModeRun || m == ModeGated || m == ModeRecover {
				st.PrevModes[i] = m
			} else {
				r.Fail("invalid mode %d", b)
			}
		}
	}
	if n := r.Len(stepStatsMinSize); n > 0 {
		st.Series = make([]StepStats, n)
		for i := range st.Series {
			x := &st.Series[i]
			x.Step = r.Int()
			x.MaxShiftV, x.MeanShiftV, x.WorstDelayNorm = r.Float(), r.Float(), margin(r)
			x.EMMaxProgress, x.EMDeltaOhm, x.MaxTempC = r.Float(), r.Float(), r.Float()
			x.Recovering = r.Int()
			x.EMReverse = r.Bool()
			x.DeliveredFrac = r.Float()
		}
	}
	st.DemandedSum, st.DeliveredSum = r.Float(), r.Float()
	st.RecoverySteps = r.Int()
	st.Guardband = margin(r)
	st.EMNucleated = r.Bool()
	if st.EMFailedStep = int(r.Varint()); st.EMFailedStep < -1 {
		r.Fail("EM failure step %d", st.EMFailedStep)
	}
	return st, r.Close()
}

// margin reads a delay margin: a float that may be +Inf but not NaN or
// -Inf.
func margin(r *codec.Reader) float64 {
	v := r.RawFloat()
	if math.IsNaN(v) || math.IsInf(v, -1) {
		r.Fail("delay margin %g invalid", v)
	}
	return v
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
// Every component, the grids and the sim state included, has its own
// dense hand-framed codec, and the engine container concatenates them raw:
// no compression and no self-describing encoding, so a snapshot is cheap
// enough to take on every eviction, which is what lets a fleet suspend
// evicted chips to in-memory blobs. Size is guarded by a regression test
// against a committed byte budget.
func (s *Simulator) Snapshot() ([]byte, error) {
	var start time.Time
	if metCkptSaveSeconds != nil {
		start = time.Now()
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
	snap.Components[snapThermal] = s.grid.Snapshot()
	snap.Components[snapPDN] = s.power.Snapshot()

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
		state.PolicyState = sp.SnapshotState()
	}
	snap.Components[snapSim] = state.encode()
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
	state, err := decodeSimState(blob, len(s.cores))
	if err != nil {
		return err
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
	case state.Step > s.cfg.Steps || len(state.Series) != wantSeriesLen(state):
		return fmt.Errorf("core: restore: inconsistent resume point (step %d, %d recorded)", state.Step, len(state.Series))
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
	// The sensors are read once when the simulator is built and once per
	// step after that (never more), which bounds their noise journals.
	maxReads := int64(state.Step) + 1
	for i, ro := range s.sensors {
		if err := restore(snapROSensor(i), func(data []byte) error { return ro.Restore(data, maxReads) }); err != nil {
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
	}{
		{snapEMSensor, func(data []byte) error { return s.emSensor.Restore(data, maxReads) }},
		{snapThermal, s.grid.Restore},
		{snapPDN, s.power.Restore},
	} {
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
