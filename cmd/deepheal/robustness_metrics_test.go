package main

import (
	"context"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"deepheal/internal/campaign"
	"deepheal/internal/faultinject"
	"deepheal/internal/mathx"
	"deepheal/internal/obs"
	"deepheal/internal/thermal"
)

// TestRobustnessMetricsExposition moves the three degraded-mode series —
// point retries, quarantined points, failed direct solves — through real
// failure paths and asserts they surface in both the Prometheus scrape and
// the JSON snapshot.
func TestRobustnessMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	campaign.EnableMetrics(reg)
	mathx.EnableMetrics(reg)
	t.Cleanup(func() {
		campaign.EnableMetrics(nil)
		mathx.EnableMetrics(nil)
	})

	// One point errors on both of its attempts (occurrences 1 and 2 of the
	// point-error site): attempt 1 fails and is retried (+1 retry), attempt
	// 2 fails and exhausts the budget (+1 quarantined). The thermal grid's
	// first solve diverges, so its Settle fails (+1 Cholesky failure).
	inj, err := faultinject.New(7, map[faultinject.Site]faultinject.Schedule{
		faultinject.SitePointError: {Occurrences: []uint64{1, 2}},
		faultinject.SiteCGDiverge:  {Occurrences: []uint64{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(inj)
	t.Cleanup(faultinject.Disable)

	task := campaign.Task{ID: "chaos"}
	for _, key := range []string{"chaos/p0", "chaos/p1"} {
		task.Points = append(task.Points, campaign.NewPoint(key, "",
			func(context.Context) (*int, error) { v := 1; return &v, nil }))
	}
	task.Assemble = func(results []any) (any, error) { return len(results), nil }
	outcomes, runErr := campaign.Run(context.Background(), []campaign.Task{task},
		campaign.Options{Workers: 1, Retry: campaign.RetryPolicy{MaxAttempts: 2}})
	if !errors.Is(runErr, campaign.ErrQuarantined) {
		t.Fatalf("campaign error = %v, want ErrQuarantined", runErr)
	}
	if q := campaign.QuarantinedPoints(outcomes); len(q) != 1 {
		t.Fatalf("%d quarantined points, want 1", len(q))
	}

	g := thermal.MustNewGrid(4, 4, thermal.DefaultConfig())
	power := make([]float64, 16)
	power[5] = 2.0
	if err := g.Settle(power); err == nil {
		t.Fatal("thermal settle succeeded although its solve was made to diverge")
	}

	// Prometheus exposition.
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()
	for name, want := range map[string]float64{
		"deepheal_campaign_point_retries_total": 1,
		"deepheal_campaign_points_quarantined":  1,
		"deepheal_cholesky_failures_total":      1,
	} {
		got, err := scrapeMetric(ts.URL+"/metrics", name)
		if err != nil {
			t.Errorf("prometheus: %v", err)
			continue
		}
		if got != want {
			t.Errorf("prometheus %s = %v, want %v", name, got, want)
		}
	}

	// JSON exposition.
	out := filepath.Join(t.TempDir(), "metrics.json")
	if err := reg.Snapshot().WriteFile(out); err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ReadSnapshotFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["deepheal_campaign_point_retries_total"]; got != 1 {
		t.Errorf("json deepheal_campaign_point_retries_total = %d, want 1", got)
	}
	if got := snap.Gauges["deepheal_campaign_points_quarantined"]; got != 1 {
		t.Errorf("json deepheal_campaign_points_quarantined = %v, want 1", got)
	}
	if got := snap.Counters["deepheal_cholesky_failures_total"]; got != 1 {
		t.Errorf("json deepheal_cholesky_failures_total = %d, want 1", got)
	}
}
