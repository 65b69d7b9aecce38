package experiments

import (
	"context"
	"fmt"
	"testing"

	"deepheal/internal/campaign"
)

// TestCampaignMemoisesAcrossExperiments verifies the cross-experiment
// dedup: the four Table I recovery conditions recur inside the
// ablation-bti-cond grid and must be computed only once. A cold journal
// changes nothing: a duplicate shares its leader's value as a memo hit
// instead of decoding the record the leader just appended, at any worker
// count.
func TestCampaignMemoisesAcrossExperiments(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, journal := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/journal=%v", workers, journal), func(t *testing.T) {
				opts := campaign.Options{Workers: workers}
				if journal {
					j, err := campaign.OpenJournal(t.TempDir())
					if err != nil {
						t.Fatal(err)
					}
					defer j.Close()
					opts.Journal = j
				}
				outcomes, err := campaign.Run(context.Background(), plans(t, []string{"table1", "ablation-bti-cond"}), opts)
				if err != nil {
					t.Fatal(err)
				}
				sources := map[string]int{}
				for _, o := range outcomes {
					for _, p := range o.Points {
						sources[p.Source]++
					}
				}
				if sources["memo"] != 4 || sources["journal"] != 0 {
					t.Errorf("memo hits = %d, journal restores = %d; want 4 (the Table I conditions inside the grid) and 0",
						sources["memo"], sources["journal"])
				}
			})
		}
	}
}

// TestSimHashSeparatesInputs guards the hashing layer the memoisation and
// journal depend on: distinct configs, workloads and policies must never
// collide, and identical declarations must match.
func TestSimHashSeparatesInputs(t *testing.T) {
	a := PlanFig12()
	b := PlanFig12()
	for i := range a.Points {
		if a.Points[i].Hash == "" {
			t.Fatalf("point %s has no hash", a.Points[i].Key)
		}
		if a.Points[i].Hash != b.Points[i].Hash {
			t.Errorf("point %s: hash not reproducible", a.Points[i].Key)
		}
	}
	seen := map[string]string{}
	tasks, err := Plans()
	if err != nil {
		t.Fatal(err)
	}
	// Across the whole registry, equal hashes must only occur for the
	// intentionally shared protocols (same constructor, same inputs).
	for _, task := range tasks {
		for _, p := range task.Points {
			if p.Hash == "" {
				t.Errorf("%s: missing hash", p.Key)
			}
			seen[p.Key] = p.Hash
		}
	}
	if seen["fig12/no-recovery"] == seen["fig12/passive"] {
		t.Error("different policies hashed equal")
	}
	if seen["ablation-schedule/baseline"] == seen["fig12/no-recovery"] {
		t.Error("different configs (Steps 900 vs 2000) hashed equal")
	}
	if seen["table1/no1"] != seen["ablation-bti-cond/+0.0V-20C"] {
		t.Error("identical recovery conditions must share a hash (memoisation broken)")
	}
	if seen["fig7/baseline-nucleation"] != seen["fig5/nucleation"] {
		t.Error("shared DC nucleation baseline must hash equal across experiments")
	}
	if seen["fig7/baseline-ttf"] != seen["ablation-em-freq/dc"] {
		t.Error("shared DC TTF baseline must hash equal across experiments")
	}
}
