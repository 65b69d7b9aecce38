package experiments

import (
	"context"
	"fmt"

	"deepheal/internal/bti"
	"deepheal/internal/campaign"
	"deepheal/internal/rngx"
	"deepheal/internal/units"
)

// VariationResult is the population study: guardbands must cover the
// worst device of a variable population, so the interesting question is
// what scheduled deep healing does to the distribution's tail, not just its
// mean.
type VariationResult struct {
	PopulationSize int
	StressOnly     bti.Stats
	DeepHealed     bti.Stats
	// TailReduction is worst(stress-only)/worst(healed) per stress-hour.
	TailReduction float64
}

var _ Result = (*VariationResult)(nil)

// ID implements Result.
func (*VariationResult) ID() string { return "variation" }

// Title implements Result.
func (*VariationResult) Title() string {
	return "Population study — deep healing pulls in the worst-case tail, not just the mean"
}

// Format implements Result.
func (r *VariationResult) Format() string {
	t := &table{header: []string{"Schedule (12 h of stress each)", "mean (mV)", "σ (mV)", "P95 (mV)", "worst (mV)"}}
	put := func(name string, s bti.Stats) {
		t.add(name,
			fmt.Sprintf("%.2f", s.MeanV*1000),
			fmt.Sprintf("%.2f", s.StdV*1000),
			fmt.Sprintf("%.2f", s.P95V*1000),
			fmt.Sprintf("%.2f", s.WorstV*1000))
	}
	put("continuous stress", r.StressOnly)
	put("1h:1h deep healing", r.DeepHealed)
	return t.String() + fmt.Sprintf("\nworst-case (guardband-setting) shift reduced %.1fx across a %d-device population\n",
		r.TailReduction, r.PopulationSize)
}

// variation study constants.
const (
	variationN    = 60
	variationSeed = 2026
)

// variationStressedPoint stresses the population continuously for 12 h.
func variationStressedPoint(key string) campaign.Point {
	nominal, varn := bti.DefaultParams(), bti.DefaultVariation()
	hash := campaign.Hash("bti/population-stress", nominal, varn, variationN, variationSeed,
		bti.StressAccel, 12.0)
	return campaign.NewPoint(key, hash, func(ctx context.Context) (*bti.Stats, error) {
		pop, err := bti.NewPopulation(nominal, varn, variationN, rngx.New(variationSeed))
		if err != nil {
			return nil, err
		}
		pop.Apply(bti.StressAccel, units.Hours(12))
		s := pop.Stats()
		return &s, nil
	})
}

// variationHealedPoint interleaves the same 12 stress hours 1:1 with deep
// recovery.
func variationHealedPoint(key string) campaign.Point {
	nominal, varn := bti.DefaultParams(), bti.DefaultVariation()
	hash := campaign.Hash("bti/population-duty", nominal, varn, variationN, variationSeed,
		bti.StressAccel, bti.RecoverDeep, 1.0, 1.0, 12)
	return campaign.NewPoint(key, hash, func(ctx context.Context) (*bti.Stats, error) {
		pop, err := bti.NewPopulation(nominal, varn, variationN, rngx.New(variationSeed))
		if err != nil {
			return nil, err
		}
		if err := pop.ApplySchedule(bti.DutyCycle(bti.StressAccel, bti.RecoverDeep,
			units.Hours(1), units.Hours(1), 12)); err != nil {
			return nil, err
		}
		s := pop.Stats()
		return &s, nil
	})
}

// PlanVariation declares the population study: the same 12 hours of
// accelerated stress, delivered either continuously or interleaved 1:1
// with deep recovery, over a parameter-variable population.
func PlanVariation() campaign.Task {
	return campaign.Task{
		ID: "variation",
		Points: []campaign.Point{
			variationStressedPoint("variation/stress-only"),
			variationHealedPoint("variation/deep-healed"),
		},
		Assemble: func(results []any) (any, error) {
			res := &VariationResult{
				PopulationSize: variationN,
				StressOnly:     *results[0].(*bti.Stats),
				DeepHealed:     *results[1].(*bti.Stats),
			}
			res.TailReduction = res.StressOnly.WorstV / res.DeepHealed.WorstV
			return res, nil
		},
	}
}
