package experiments

import (
	"context"
	"sort"
	"strings"
	"testing"
)

// TestZooRegistered checks the three structures are campaign experiments.
func TestZooRegistered(t *testing.T) {
	for _, id := range []string{"decoder", "dnnmem", "multiplier"} {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
}

// TestUnknownIDErrorSorted pins the satellite fix: the available-ids list
// in unknown-id errors is lexically sorted, so it stays stable as the
// registry grows.
func TestUnknownIDErrorSorted(t *testing.T) {
	if !sort.StringsAreSorted(SortedIDs()) {
		t.Fatalf("SortedIDs not sorted: %v", SortedIDs())
	}
	_, err := Plans("no-such-experiment")
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	want := strings.Join(SortedIDs(), ", ")
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not list sorted ids %q", err, want)
	}
	if _, err := Run(context.Background(), "no-such-experiment"); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Run error %v does not list sorted ids", err)
	}
}
