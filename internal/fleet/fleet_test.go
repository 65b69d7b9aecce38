package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"deepheal/internal/bti"
	"deepheal/internal/engine"
)

func ctx() context.Context { return context.Background() }

// testSpec is a small, fast chip: 4x4 cores (the PDN model degenerates
// below 3x3), a short horizon, explicit seed for reproducibility.
func testSpec(id string) ChipSpec {
	return ChipSpec{ID: id, Rows: 4, Cols: 4, Steps: 60, Seed: 7}
}

func TestRegisterStepStatus(t *testing.T) {
	m := NewManager(Options{Workers: 2})
	defer m.Close()

	specs := []ChipSpec{
		testSpec("a"),
		{ID: "b", Steps: 60, Corner: "fast", Policy: "no-recovery"},
		{ID: "c", Steps: 60, Corner: "leaky", Workload: WorkloadSpec{Kind: "periodic", BusySteps: 6, IdleSteps: 2}},
	}
	for _, spec := range specs {
		st, err := m.Register(spec)
		if err != nil {
			t.Fatalf("register %q: %v", spec.ID, err)
		}
		if st.Step != 0 || st.Steps != 60 || st.Suspended {
			t.Errorf("fresh status %+v", st)
		}
		if st.RemainingSteps != -1 {
			t.Errorf("fresh chip %q estimates %d remaining steps, want -1 (unknown)", spec.ID, st.RemainingSteps)
		}
	}
	if m.Len() != 3 {
		t.Fatalf("fleet has %d chips, want 3", m.Len())
	}

	statuses, err := m.StepAll(ctx(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 3 {
		t.Fatalf("batch returned %d statuses", len(statuses))
	}
	for i, st := range statuses {
		if st.ID != specs[i].ID {
			t.Errorf("batch order: status %d is %q, want %q", i, st.ID, specs[i].ID)
		}
		if st.Step != 10 {
			t.Errorf("chip %q at step %d, want 10", st.ID, st.Step)
		}
		if st.MaxShiftV <= 0 || st.WorstDelayNorm < 1 {
			t.Errorf("chip %q has implausible wearout %+v", st.ID, st)
		}
	}

	// Per-chip stepping clamps at the horizon.
	st, err := m.Step(ctx(), "a", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 60 {
		t.Errorf("chip a at step %d after over-stepping, want 60 (horizon)", st.Step)
	}
	if st.RemainingSteps < 0 {
		t.Errorf("aged chip still reports unknown lifetime: %+v", st)
	}

	// Status is a cheap cached read and matches the last step result.
	got, err := m.Status("a")
	if err != nil {
		t.Fatal(err)
	}
	if got != st {
		t.Errorf("cached status %+v != step result %+v", got, st)
	}

	if err := m.Unregister("b"); err != nil {
		t.Fatal(err)
	}
	if err := m.Unregister("b"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double unregister: %v, want ErrNotFound", err)
	}
	if list := m.List(); len(list) != 2 || list[0].ID != "a" || list[1].ID != "c" {
		t.Errorf("list after unregister: %+v", list)
	}
}

func TestRegisterValidation(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()
	if _, err := m.Register(testSpec("dup")); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		spec ChipSpec
		want error
	}{
		{"duplicate id", testSpec("dup"), ErrDuplicate},
		{"missing id", ChipSpec{}, nil},
		{"tiny grid", ChipSpec{ID: "t", Rows: 2, Cols: 2}, nil},
		{"bad policy", ChipSpec{ID: "p", Policy: "nope"}, nil},
		{"bad corner", ChipSpec{ID: "c", Corner: "nope"}, nil},
		{"bad workload", ChipSpec{ID: "w", Workload: WorkloadSpec{Kind: "nope"}}, nil},
		{"bad periodic", ChipSpec{ID: "w2", Workload: WorkloadSpec{Kind: "periodic"}}, nil},
	}
	for _, tc := range cases {
		_, err := m.Register(tc.spec)
		if err == nil {
			t.Errorf("%s: registration accepted", tc.name)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
	}
	if m.Len() != 1 {
		t.Errorf("failed registrations leaked into the fleet: %d chips", m.Len())
	}
}

// TestModelSharing verifies the tentpole invariant: chips sharing a corner
// and geometry share one Model, so chip N+1 discretises no new BTI grids.
func TestModelSharing(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()
	corners := []string{"typical", "fast", "slow", "leaky"}
	for i, corner := range corners {
		if _, err := m.Register(ChipSpec{ID: corner + "-0", Corner: corner, Steps: 30, Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	builds := bti.GridCacheStats().Builds
	for i, corner := range corners {
		for j := 1; j <= 3; j++ {
			id := corner + "-" + string(rune('0'+j))
			if _, err := m.Register(ChipSpec{ID: id, Corner: corner, Steps: 30, Seed: int64(10*i + j)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := bti.GridCacheStats().Builds - builds; got != 0 {
		t.Errorf("registering 12 more chips over 4 warm corners built %d grids, want 0", got)
	}
	if _, err := m.StepAll(ctx(), 5); err != nil {
		t.Fatal(err)
	}
	if got := bti.GridCacheStats().Builds - builds; got != 0 {
		t.Errorf("stepping the fleet built %d grids, want 0", got)
	}
}

// TestResidencyBudget verifies that a budgeted fleet produces the exact
// same physics as an unbudgeted one: suspension to compact snapshots and
// rehydration are invisible to the trajectory.
func TestResidencyBudget(t *testing.T) {
	free := NewManager(Options{Workers: 1})
	defer free.Close()
	tight := NewManager(Options{Workers: 1, MaxResident: 1})
	defer tight.Close()

	ids := []string{"x", "y", "z"}
	for _, m := range []*Manager{free, tight} {
		for i, id := range ids {
			spec := testSpec(id)
			spec.Seed = int64(i + 1)
			if _, err := m.Register(spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	resident := func(m *Manager) int {
		n := 0
		for _, st := range m.List() {
			if !st.Suspended {
				n++
			}
		}
		return n
	}
	if got := resident(tight); got > 1 {
		t.Errorf("budgeted fleet keeps %d chips resident, cap 1", got)
	}
	if got := resident(free); got != 3 {
		t.Errorf("unbudgeted fleet suspended chips: %d resident", got)
	}

	// Interleave per-chip and batch stepping; each step on the tight fleet
	// forces rehydrate + suspend churn.
	for round := 0; round < 3; round++ {
		for _, id := range ids {
			if _, err := free.Step(ctx(), id, 4); err != nil {
				t.Fatal(err)
			}
			if _, err := tight.Step(ctx(), id, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := free.StepAll(ctx(), 7); err != nil {
		t.Fatal(err)
	}
	if _, err := tight.StepAll(ctx(), 7); err != nil {
		t.Fatal(err)
	}

	wants, gots := free.List(), tight.List()
	for i := range wants {
		if !statusEqual(wants[i], gots[i]) {
			t.Errorf("chip %q diverged under residency budget:\n got %+v\nwant %+v",
				wants[i].ID, gots[i], wants[i])
		}
	}
	if got := resident(tight); got > 1 {
		t.Errorf("budget violated after stepping: %d resident", got)
	}
}

func TestCheckpointRestore(t *testing.T) {
	m := NewManager(Options{Workers: 2})
	defer m.Close()
	for i, id := range []string{"a", "b", "c"} {
		spec := testSpec(id)
		spec.Seed = int64(i + 1)
		if i == 1 {
			spec.Corner = "fast"
			spec.Policy = "round-robin"
		}
		if _, err := m.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.StepAll(ctx(), 20); err != nil {
		t.Fatal(err)
	}
	want := m.List()
	blob, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	re := NewManager(Options{Workers: 2})
	defer re.Close()
	if err := re.Restore(blob); err != nil {
		t.Fatal(err)
	}
	got := re.List()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored fleet answers differently:\n got %+v\nwant %+v", got, want)
	}

	// The restored fleet must also evolve identically.
	a, err := m.StepAll(ctx(), 15)
	if err != nil {
		t.Fatal(err)
	}
	b, err := re.StepAll(ctx(), 15)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("restored fleet diverged after further stepping:\n got %+v\nwant %+v", b, a)
	}

	// Query output must be byte-identical, the property the CI smoke
	// test asserts over HTTP.
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Error("restored fleet JSON differs from original")
	}

	if err := re.Restore(blob); err == nil {
		t.Error("restore into a non-empty manager accepted")
	}
	if err := (NewManager(Options{})).Restore(blob[:len(blob)/2]); err == nil {
		t.Error("truncated checkpoint accepted")
	}
}

// TestCheckpointOfSuspendedChips covers the suspended path: a checkpoint
// taken while chips are evicted must restore just as faithfully.
// TestRestoreRejectsDuplicateIDs checks a checkpoint whose meta lists one
// chip twice is refused up front, leaving the manager empty and usable.
func TestRestoreRejectsDuplicateIDs(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()
	if _, err := m.Register(testSpec("a")); err != nil {
		t.Fatal(err)
	}
	blob, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := engine.DecodeSystemSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := json.Marshal(fleetMeta{Version: fleetCheckpointVersion, IDs: []string{"a", "a"}})
	if err != nil {
		t.Fatal(err)
	}
	snap.Components[snapMeta] = meta
	dup, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}

	re := NewManager(Options{Workers: 1})
	defer re.Close()
	if err := re.Restore(dup); err == nil {
		t.Fatalf("checkpoint listing chip \"a\" twice restored with %d chips", re.Len())
	}
	if re.Len() != 0 {
		t.Fatalf("rejected restore left %d chips behind", re.Len())
	}
	if err := re.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Checkpoint(); err != nil {
		t.Errorf("checkpoint after restore: %v", err)
	}
}

func TestCheckpointOfSuspendedChips(t *testing.T) {
	m := NewManager(Options{Workers: 1, MaxResident: 1})
	defer m.Close()
	for i, id := range []string{"s1", "s2"} {
		spec := testSpec(id)
		spec.Seed = int64(i + 1)
		if _, err := m.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.StepAll(ctx(), 12); err != nil {
		t.Fatal(err)
	}
	want := m.List()
	blob, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	re := NewManager(Options{Workers: 1}) // no budget: all chips rehydrate
	defer re.Close()
	if err := re.Restore(blob); err != nil {
		t.Fatal(err)
	}
	got := re.List()
	if len(got) != len(want) {
		t.Fatalf("restored %d chips, want %d", len(got), len(want))
	}
	for i := range want {
		if !statusEqual(got[i], want[i]) {
			t.Errorf("chip %q: restored %+v, want %+v", want[i].ID, got[i], want[i])
		}
	}
}

func TestSchedule(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()
	spec := testSpec("sched")
	spec.Policy = "no-recovery" // let shift accumulate so the schedule fills
	if _, err := m.Register(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(ctx(), "sched", 40); err != nil {
		t.Fatal(err)
	}
	sched, err := m.Schedule("sched")
	if err != nil {
		t.Fatal(err)
	}
	if sched.ID != "sched" || sched.Step != 40 || sched.MaxConcurrent != 4 {
		t.Errorf("schedule header %+v", sched)
	}
	if len(sched.Cores) == 0 || len(sched.Cores) > 4 {
		t.Fatalf("schedule proposes %d cores, want 1..4", len(sched.Cores))
	}
	for i, slot := range sched.Cores {
		if slot.SensedShiftV < sched.ThresholdV {
			t.Errorf("slot %d below threshold: %+v", i, slot)
		}
		if i > 0 && slot.SensedShiftV > sched.Cores[i-1].SensedShiftV {
			t.Errorf("schedule not sorted worst-first at %d", i)
		}
	}
	again, err := m.Schedule("sched")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sched, again) {
		t.Errorf("schedule not deterministic:\n%+v\n%+v", sched, again)
	}
	if _, err := m.Schedule("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("schedule for unknown chip: %v", err)
	}
}

func TestUpdateWorkload(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()
	if _, err := m.Register(testSpec("w")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(ctx(), "w", 10); err != nil {
		t.Fatal(err)
	}
	before, _ := m.Status("w")
	st, err := m.UpdateWorkload("w", WorkloadSpec{Kind: "iot", WakeEvery: 8, Active: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != before.Step || st.GuardbandFrac != before.GuardbandFrac {
		t.Errorf("workload update changed wearout state: %+v -> %+v", before, st)
	}
	after, err := m.Step(ctx(), "w", 20)
	if err != nil {
		t.Fatal(err)
	}
	if after.Step != 30 {
		t.Errorf("chip at step %d after update+step, want 30", after.Step)
	}
	if _, err := m.UpdateWorkload("w", WorkloadSpec{Kind: "nope"}); err == nil {
		t.Error("bad workload accepted")
	}
	if _, err := m.UpdateWorkload("ghost", WorkloadSpec{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("update for unknown chip: %v", err)
	}
}

func TestRemainingStepsEstimate(t *testing.T) {
	cases := []struct {
		guardband, limit float64
		step, want       int
	}{
		{0.12, 0.10, 50, 0}, // budget spent
		{0.0, 0.10, 50, -1}, // no degradation signal
		{0.05, 0.10, 0, -1}, // no steps yet
		{0.05, 0.10, 100, 100},
		{0.02, 0.10, 100, 400},
	}
	for _, tc := range cases {
		if got := remainingSteps(tc.guardband, tc.limit, tc.step); got != tc.want {
			t.Errorf("remainingSteps(%v, %v, %d) = %d, want %d",
				tc.guardband, tc.limit, tc.step, got, tc.want)
		}
	}
}

// TestConcurrentChurnMatchesUnbudgeted races parallel suspension against
// every stepping and query path: batches, single-chip steps, registrations
// and status reads all run at once on a budgeted fleet. Afterwards the
// budget must hold and every chip must match an unbudgeted fleet driven
// through the same steps. Every step call advances 3 steps, so a chip's
// final step count fixes the calls it received regardless of their order.
func TestConcurrentChurnMatchesUnbudgeted(t *testing.T) {
	const budget, stride = 4, 3
	m := NewManager(Options{Workers: 2, MaxResident: budget})
	defer m.Close()
	spec := func(id string, seed int64) ChipSpec {
		s := testSpec(id)
		s.Steps, s.Seed = 10000, seed
		return s
	}
	var specs []ChipSpec
	for i := 0; i < 8; i++ {
		specs = append(specs, spec(fmt.Sprintf("c%d", i), int64(i+1)))
	}
	for _, s := range specs {
		if _, err := m.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	late := []ChipSpec{spec("late0", 21), spec("late1", 22), spec("late2", 23)}

	var wg sync.WaitGroup
	errs := make(chan error, 5) // one slot per goroutine below, each sends at most once
	run := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(); err != nil {
				errs <- err
			}
		}()
	}
	run(func() error {
		for i := 0; i < 4; i++ {
			if _, err := m.StepAll(ctx(), stride); err != nil {
				return err
			}
		}
		return nil
	})
	for g := 0; g < 2; g++ {
		g := g
		run(func() error {
			for i := 0; i < 6; i++ {
				if _, err := m.Step(ctx(), specs[(g+2*i)%len(specs)].ID, stride); err != nil {
					return err
				}
			}
			return nil
		})
	}
	run(func() error {
		for _, s := range late {
			if _, err := m.Register(s); err != nil {
				return err
			}
		}
		return nil
	})
	run(func() error {
		for i := 0; i < 40; i++ {
			if _, err := m.Status(specs[i%len(specs)].ID); err != nil {
				return err
			}
		}
		return nil
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	byID := make(map[string]ChipSpec)
	for _, s := range append(specs, late...) {
		byID[s.ID] = s
	}
	free := NewManager(Options{Workers: 2})
	defer free.Close()
	resident := 0
	for _, got := range m.List() {
		if !got.Suspended {
			resident++
		}
		if got.Step%stride != 0 {
			t.Fatalf("chip %q at step %d, not a multiple of %d", got.ID, got.Step, stride)
		}
		want, err := free.Register(byID[got.ID])
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < got.Step/stride; k++ {
			if want, err = free.Step(ctx(), got.ID, stride); err != nil {
				t.Fatal(err)
			}
		}
		if !statusEqual(got, want) {
			t.Errorf("chip %q diverged under concurrent churn:\n got %+v\nwant %+v", got.ID, got, want)
		}
	}
	if resident > budget {
		t.Errorf("%d chips resident after concurrent churn, budget %d", resident, budget)
	}
}
