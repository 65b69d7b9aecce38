package experiments

import (
	"context"
	"fmt"

	"deepheal/internal/bti"
	"deepheal/internal/campaign"
	"deepheal/internal/core"
	"deepheal/internal/em"
	"deepheal/internal/units"
)

// This file holds the campaign point constructors shared by several
// experiment plans. Sharing the constructor shares the content hash, which
// is what lets the campaign engine compute a physical protocol once when
// two experiments declare it — e.g. the four Table I recovery conditions
// reappear inside the ablation-bti-cond grid, and fig5, fig7 and
// ablation-em-freq all need the same DC nucleation/failure baselines.

// btiRecoveryFractionPoint measures the fraction of the BTI shift a device
// recovers under cond, after stressHours of accelerated stress.
func btiRecoveryFractionPoint(key string, cond bti.Condition, stressHours, recoverHours float64) campaign.Point {
	params := bti.DefaultParams()
	hash := campaign.Hash("bti/recovery-fraction", params, bti.StressAccel, cond, stressHours, recoverHours)
	return campaign.NewPoint(key, hash, func(ctx context.Context) (*float64, error) {
		dev, err := bti.NewDevice(params)
		if err != nil {
			return nil, err
		}
		dev.Apply(bti.StressAccel, units.Hours(stressHours))
		f := dev.RecoveryFraction(cond, units.Hours(recoverHours))
		return &f, nil
	})
}

// btiShiftPoint measures the threshold shift after holding one condition
// for a duration.
func btiShiftPoint(key string, cond bti.Condition, hours float64) campaign.Point {
	params := bti.DefaultParams()
	hash := campaign.Hash("bti/shift", params, cond, hours)
	return campaign.NewPoint(key, hash, func(ctx context.Context) (*float64, error) {
		dev, err := bti.NewDevice(params)
		if err != nil {
			return nil, err
		}
		dev.Apply(cond, units.Hours(hours))
		v := dev.ShiftV()
		return &v, nil
	})
}

// emNucleationPoint measures the DC time to void nucleation (minutes) at
// the shared paper stress condition.
func emNucleationPoint(key string, horizonHours float64) campaign.Point {
	p := em.DefaultParams()
	hash := campaign.Hash("em/nucleation-dc", p, emJ, emTemp, horizonHours)
	return campaign.NewPoint(key, hash, func(ctx context.Context) (*float64, error) {
		w, err := em.NewWire(p)
		if err != nil {
			return nil, err
		}
		tn, err := w.TimeToNucleation(emJ, emTemp, units.Hours(horizonHours))
		if err != nil {
			return nil, fmt.Errorf("nucleation: %w", err)
		}
		m := units.SecondsToMinutes(tn)
		return &m, nil
	})
}

// emDCTTFPoint measures the DC time to failure (minutes) at the shared
// paper stress condition.
func emDCTTFPoint(key string, horizonHours float64) campaign.Point {
	p := em.DefaultParams()
	hash := campaign.Hash("em/ttf-dc", p, emJ, emTemp, horizonHours)
	return campaign.NewPoint(key, hash, func(ctx context.Context) (*float64, error) {
		w, err := em.NewWire(p)
		if err != nil {
			return nil, err
		}
		ttf, err := w.TimeToFailure(emJ, emTemp, units.Hours(horizonHours))
		if err != nil {
			return nil, fmt.Errorf("DC TTF: %w", err)
		}
		m := units.SecondsToMinutes(ttf)
		return &m, nil
	})
}

// simPoint runs one system-level simulation: cfg under the policy that
// newPolicy builds. A factory rather than a policy instance because some
// policies (DeepHealing) carry scheduling state — every execution must get
// a fresh one. The hash covers the config, the per-core workload series
// (semantically, by sampling each profile over the horizon) and the
// policy's name and exported knobs.
func simPoint(key string, cfg core.Config, newPolicy func() core.Policy) campaign.Point {
	return campaign.NewPoint(key, simHash(cfg, newPolicy()),
		func(ctx context.Context) (*core.Report, error) {
			sim, err := core.NewSimulator(cfg, newPolicy(), core.WithWorkers(1))
			if err != nil {
				return nil, err
			}
			return sim.RunContext(ctx)
		})
}

// simHash derives the content hash of one (config, workloads, policy)
// simulation point.
func simHash(cfg core.Config, pol core.Policy) string {
	bare := cfg
	bare.Workloads = nil // hashed semantically below
	parts := []any{"core/sim", bare}
	for i, w := range cfg.Workloads {
		if w == nil {
			parts = append(parts, fmt.Sprintf("default-workload@%d", i))
			continue
		}
		parts = append(parts, campaign.SampledSeries(w.Name(), cfg.Steps, func(step int) float64 {
			return w.At(step)
		}))
	}
	parts = append(parts, pol.Name(), pol)
	return campaign.Hash(parts...)
}

// errorTask wraps a plan-time failure as a single failing point, keeping
// Plan's error-free signature while still surfacing the error through the
// normal campaign path.
func errorTask(id string, err error) campaign.Task {
	return campaign.Task{
		ID: id,
		Points: []campaign.Point{campaign.NewPoint(id+"/plan", "",
			func(context.Context) (*struct{}, error) { return nil, err })},
		Assemble: func([]any) (any, error) { return nil, err },
	}
}
