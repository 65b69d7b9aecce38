package faultinject

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// enable installs an injector for the duration of the test.
func enable(t *testing.T, seed uint64, plan map[Site]Schedule) *Injector {
	t.Helper()
	inj, err := New(seed, plan)
	if err != nil {
		t.Fatal(err)
	}
	Enable(inj)
	t.Cleanup(Disable)
	return inj
}

func TestDisabledInjectorNeverFires(t *testing.T) {
	Disable()
	if Hit(SitePointError, "k") || Enabled() || StallDelay(SitePointStall, "k") != 0 {
		t.Error("disabled injector fired")
	}
	if err := ErrorAt(SiteCGDiverge, ""); err != nil {
		t.Errorf("disabled injector returned %v", err)
	}
}

func TestKeyedDecisionsAreDeterministicAndSeedSensitive(t *testing.T) {
	plan := map[Site]Schedule{SitePointError: {Prob: 0.5}}
	inj1, _ := New(7, plan)
	inj2, _ := New(7, plan)
	inj3, _ := New(8, plan)
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	same, diff := 0, 0
	for _, k := range keys {
		r1, r2, r3 := inj1.hit(SitePointError, k), inj2.hit(SitePointError, k), inj3.hit(SitePointError, k)
		if r1 != r2 {
			t.Fatalf("same seed disagreed on key %q", k)
		}
		if r1 == r3 {
			same++
		} else {
			diff++
		}
	}
	if diff == 0 {
		t.Error("changing the seed changed no decision across 10 keys")
	}
	_ = same
}

func TestKeyedDecisionIndependentOfProbeOrder(t *testing.T) {
	plan := map[Site]Schedule{SitePointError: {Prob: 0.5}}
	forward, _ := New(3, plan)
	backward, _ := New(3, plan)
	keys := []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}
	got := make(map[string]bool)
	for _, k := range keys {
		got[k] = forward.hit(SitePointError, k)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		if backward.hit(SitePointError, keys[i]) != got[keys[i]] {
			t.Fatalf("probe order changed the decision for %q", keys[i])
		}
	}
}

func TestOccurrenceScheduleFiresExactly(t *testing.T) {
	inj := enable(t, 1, map[Site]Schedule{SiteCGDiverge: {Occurrences: []uint64{2, 4}}})
	var fired []int
	for i := 1; i <= 5; i++ {
		if Hit(SiteCGDiverge, "") {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 4 {
		t.Errorf("fired at %v, want [2 4]", fired)
	}
	if Fired(SiteCGDiverge) != 2 {
		t.Errorf("Fired = %d, want 2", Fired(SiteCGDiverge))
	}
	_ = inj
}

func TestMaxFiresCapsTotal(t *testing.T) {
	enable(t, 1, map[Site]Schedule{SitePointError: {Prob: 1, MaxFires: 3}})
	n := 0
	for i := 0; i < 10; i++ {
		if Hit(SitePointError, "k") {
			n++
		}
	}
	if n != 3 {
		t.Errorf("fired %d times, want 3 (capped)", n)
	}
}

func TestStallDelayAndFaultError(t *testing.T) {
	enable(t, 1, map[Site]Schedule{
		SitePointStall: {Prob: 1, Delay: 25 * time.Millisecond},
		SiteEMTridiag:  {Prob: 1},
	})
	if d := StallDelay(SitePointStall, "x"); d != 25*time.Millisecond {
		t.Errorf("stall delay = %v", d)
	}
	err := ErrorAt(SiteEMTridiag, "wire")
	var f *Fault
	if !errors.As(err, &f) || f.Site != SiteEMTridiag {
		t.Errorf("ErrorAt = %v", err)
	}
}

func TestHitIsSafeForConcurrentUse(t *testing.T) {
	enable(t, 1, map[Site]Schedule{SitePointError: {Prob: 0.5, MaxFires: 100}})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				Hit(SitePointError, "shared")
			}
		}(w)
	}
	wg.Wait()
	if Fired(SitePointError) > 100 {
		t.Errorf("MaxFires breached under concurrency: %d", Fired(SitePointError))
	}
}

func TestNewRejectsBadPlans(t *testing.T) {
	if _, err := New(0, map[Site]Schedule{"nope": {Prob: 1}}); err == nil {
		t.Error("unknown site accepted")
	}
	for _, sched := range []Schedule{
		{Prob: 1.5},
		{Prob: math.NaN()},
		{Prob: math.Inf(1)},
		{Prob: 1, Delay: -time.Second},
	} {
		if _, err := New(0, map[Site]Schedule{SitePointStall: sched}); err == nil {
			t.Errorf("schedule %+v accepted", sched)
		}
	}
}

func TestParseSpec(t *testing.T) {
	plan, err := ParseSpec("point-error:p=0.25,max=3;worker-panic:occ=2+5;point-stall:p=0.5,delay=200ms;cg-diverge")
	if err != nil {
		t.Fatal(err)
	}
	if s := plan[SitePointError]; s.Prob != 0.25 || s.MaxFires != 3 {
		t.Errorf("point-error schedule %+v", s)
	}
	if s := plan[SiteWorkerPanic]; len(s.Occurrences) != 2 || s.Occurrences[0] != 2 || s.Occurrences[1] != 5 {
		t.Errorf("worker-panic schedule %+v", s)
	}
	if s := plan[SitePointStall]; s.Delay != 200*time.Millisecond || s.Prob != 0.5 {
		t.Errorf("point-stall schedule %+v", s)
	}
	if s := plan[SiteCGDiverge]; s.Prob != 1 {
		t.Errorf("bare site did not default to p=1: %+v", s)
	}

	for _, bad := range []string{
		"", "unknown-site:p=1", "point-error:p=2", "point-error:q=1",
		"point-error:occ=0", "point-error:p", "point-error:p=1;point-error:p=1",
		"point-error:p=NaN", "point-error:p=nan", "point-error:p=+Inf",
		"point-stall:delay=-1s",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// BenchmarkHitDisabled proves the disabled probe is effectively free — the
// cost a production run pays at every instrumented site.
func BenchmarkHitDisabled(b *testing.B) {
	Disable()
	for i := 0; i < b.N; i++ {
		if Hit(SitePointError, "key") {
			b.Fatal("fired while disabled")
		}
	}
}

// BenchmarkHitEnabledMiss measures an installed injector whose plan does not
// include the probed site.
func BenchmarkHitEnabledMiss(b *testing.B) {
	inj, _ := New(1, map[Site]Schedule{SiteCGDiverge: {Prob: 1}})
	Enable(inj)
	defer Disable()
	for i := 0; i < b.N; i++ {
		if Hit(SitePointError, "key") {
			b.Fatal("unplanned site fired")
		}
	}
}

func TestKeyFilterTargetsOnePoint(t *testing.T) {
	inj, err := New(1, map[Site]Schedule{
		SiteWorkerDie: {Prob: 1, Key: "fig4/aged"},
	})
	if err != nil {
		t.Fatal(err)
	}
	Enable(inj)
	defer Disable()
	for _, key := range []string{"table1/fresh", "fig4/base", "fig5/aged-ish"} {
		if Hit(SiteWorkerDie, key) {
			t.Errorf("key filter fired for unrelated key %q", key)
		}
	}
	if !Hit(SiteWorkerDie, "fig4/aged") {
		t.Error("key filter did not fire for the targeted key")
	}
	if !Hit(SiteWorkerDie, "prefix fig4/aged suffix") {
		t.Error("key filter is a substring match; embedded key must fire")
	}
}

func TestKeyFilterDoesNotConsumeOccurrences(t *testing.T) {
	// Non-matching probes must not advance the occurrence counter: occ=2
	// means the second probe *for the targeted key*, regardless of how many
	// other points are probed in between.
	inj, err := New(1, map[Site]Schedule{
		SiteWorkerDie: {Occurrences: []uint64{2}, Key: "poison"},
	})
	if err != nil {
		t.Fatal(err)
	}
	Enable(inj)
	defer Disable()
	for i := 0; i < 10; i++ {
		if Hit(SiteWorkerDie, "healthy/point") {
			t.Fatal("non-matching probe fired")
		}
	}
	if Hit(SiteWorkerDie, "poison/point") {
		t.Error("first matching probe fired; occ=2 wants the second")
	}
	if !Hit(SiteWorkerDie, "poison/point") {
		t.Error("second matching probe did not fire")
	}
}

func TestParseSpecKeyOption(t *testing.T) {
	plan, err := ParseSpec("worker-die:key=fig4/aged;coordinator-die:occ=2")
	if err != nil {
		t.Fatal(err)
	}
	if s := plan[SiteWorkerDie]; s.Key != "fig4/aged" || s.Prob != 1 {
		t.Errorf("key-only clause %+v, want key filter with implied p=1", s)
	}
	if s := plan[SiteCoordinatorDie]; len(s.Occurrences) != 1 || s.Occurrences[0] != 2 || s.Prob != 0 {
		t.Errorf("coordinator-die schedule %+v", s)
	}
	if _, err := ParseSpec("worker-die:key="); err == nil {
		t.Error("empty key filter accepted")
	}
}

// FuzzParseSpec feeds arbitrary specs to the CLI parser. It must never
// panic, and every plan it accepts must also be accepted by New — the
// parser may not hand the injector a schedule that cannot run as written.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"point-error:p=0.25,max=3;worker-panic:occ=2+5;point-stall:p=0.5,delay=200ms;cg-diverge",
		"worker-die:key=fig4/aged;coordinator-die:occ=2",
		"", "unknown-site:p=1", "point-error:p=2", "point-error:q=1",
		"point-error:occ=0", "point-error:p", "point-error:p=1;point-error:p=1",
		"point-error:p=NaN", "point-stall:delay=-1s", "worker-die:key=",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if _, err := New(1, plan); err != nil {
			t.Fatalf("ParseSpec(%q) accepted a plan New refuses: %v", spec, err)
		}
	})
}
