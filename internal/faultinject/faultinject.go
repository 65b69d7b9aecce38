// Package faultinject is a deterministic, seed-driven fault injector for
// chaos-testing the simulation stack. Call sites embedded in production code
// name a Site and ask Hit whether the fault should fire; with no injector
// installed (the default) the check is a single atomic pointer load that
// returns false, so the instrumented hot paths carry no measurable cost.
//
// Determinism is the design centre: a fired fault must be attributable and a
// chaos run must be reproducible. Decisions are therefore pure functions of
// (seed, site, key) — a point key, a file path — so the same campaign under
// the same seed quarantines the same points regardless of worker count or
// goroutine interleaving. Sites probed without a natural key fall back to a
// per-site occurrence counter, which is reproducible only under serial
// execution; keyed sites are the default throughout the repo.
//
// The injector is configured from a compact spec string (see ParseSpec), the
// same syntax the deepheal CLI accepts via -faults:
//
//	point-error:p=0.25,max=3;worker-panic:occ=2+5;point-stall:p=0.5,delay=200ms
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Site names one instrumented fault location.
type Site string

// The instrumented sites. Each names the failure it simulates, not the
// package that hosts the probe.
const (
	// SiteWorkerPanic fires a panic inside a campaign point's Run — the
	// "worker crashed mid-point" failure.
	SiteWorkerPanic Site = "worker-panic"
	// SitePointError makes a campaign point return a transient error.
	SitePointError Site = "point-error"
	// SitePointStall delays a campaign point by the schedule's delay — food
	// for the stall watchdog and the per-point deadline.
	SitePointStall Site = "point-stall"
	// SitePointCancel runs a campaign point under an already-cancelled
	// context, simulating cancellation arriving mid-point.
	SitePointCancel Site = "point-cancel"
	// SiteCGDiverge forces a linear solve (CG or Cholesky) to fail.
	SiteCGDiverge Site = "cg-diverge"
	// SiteEMTridiag forces the EM wire's tridiagonal solve to fail.
	SiteEMTridiag Site = "em-tridiag"
	// SiteJournalCorrupt corrupts the payload of a journal record as it is
	// written, exercising the CRC skip-and-log path on resume.
	SiteJournalCorrupt Site = "journal-corrupt"
	// SiteWorkerDie kills a distributed campaign worker after it computed a
	// point but before the result reaches its shard — the "worker process
	// crashed mid-run" failure the lease-expiry takeover must survive.
	SiteWorkerDie Site = "worker-die"
	// SiteCoordinatorDie kills a distributed campaign coordinator mid-drain
	// — before merge and assembly — the failure `coordinate -resume` must
	// recover from without re-running any completed point.
	SiteCoordinatorDie Site = "coordinator-die"
	// SiteCheckpointTruncate truncates a checkpoint blob half-way through
	// its raw component entries before it reaches disk.
	SiteCheckpointTruncate Site = "checkpoint-truncate"
)

// Sites lists every known site, sorted, for CLI help and spec validation.
func Sites() []Site {
	all := []Site{
		SiteWorkerPanic, SitePointError, SitePointStall, SitePointCancel,
		SiteCGDiverge, SiteEMTridiag, SiteJournalCorrupt, SiteCheckpointTruncate,
		SiteWorkerDie, SiteCoordinatorDie,
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

func knownSite(s Site) bool {
	for _, k := range Sites() {
		if k == s {
			return true
		}
	}
	return false
}

// Schedule decides when a site fires. Occurrences and Prob compose: a hit
// fires when its 1-based per-site occurrence index is listed OR the keyed
// probability draw succeeds. MaxFires caps the total fires at the site
// (0 = unlimited). Delay is the stall duration for SitePointStall-style
// sites. Key, when non-empty, restricts the schedule to probes whose key
// contains it as a substring — probes for other keys neither fire nor count
// toward Occurrences, which is how a chaos spec poisons one specific
// campaign point (`worker-die:key=fig4/aged`) no matter which worker, or
// how many workers, lease it.
type Schedule struct {
	Prob        float64
	Occurrences []uint64
	MaxFires    uint64
	Delay       time.Duration
	Key         string
}

// validate reports why a schedule cannot run as written: a probability
// outside [0,1] — NaN included, which no draw is ever below, so the site
// would silently never fire — or a negative delay, which stalls nothing.
func (s Schedule) validate() error {
	if !(s.Prob >= 0 && s.Prob <= 1) {
		return fmt.Errorf("probability %g outside [0,1]", s.Prob)
	}
	if s.Delay < 0 {
		return fmt.Errorf("delay %v is negative", s.Delay)
	}
	return nil
}

type siteState struct {
	sched Schedule
	hits  atomic.Uint64
	fires atomic.Uint64
}

// Injector is one immutable fault plan plus its per-site counters. Build
// with New, install with Enable.
type Injector struct {
	seed  uint64
	sites map[Site]*siteState
}

// New builds an injector from a seed and a per-site plan. Unknown sites are
// rejected so a typo cannot silently disable a chaos schedule.
func New(seed uint64, plan map[Site]Schedule) (*Injector, error) {
	inj := &Injector{seed: seed, sites: make(map[Site]*siteState, len(plan))}
	for site, sched := range plan {
		if !knownSite(site) {
			return nil, fmt.Errorf("faultinject: unknown site %q", site)
		}
		if err := sched.validate(); err != nil {
			return nil, fmt.Errorf("faultinject: site %q: %v", site, err)
		}
		inj.sites[site] = &siteState{sched: sched}
	}
	return inj, nil
}

// active is the installed injector; nil means injection is disabled and
// every probe short-circuits to false.
var active atomic.Pointer[Injector]

// Enable installs inj as the process-wide injector. Pass the result of New;
// Enable(nil) is Disable. Installation is not synchronised with in-flight
// probes — install before the workload starts, as with obs.EnableMetrics.
func Enable(inj *Injector) { active.Store(inj) }

// Disable removes the installed injector, restoring the zero-cost path.
func Disable() { active.Store(nil) }

// Enabled reports whether an injector is installed.
func Enabled() bool { return active.Load() != nil }

// Hit reports whether the fault at site fires for this probe. key should
// identify the work unit deterministically (a point key, a path); sites
// probed with an empty key draw from the per-site occurrence counter
// instead. Always false when no injector is installed.
func Hit(site Site, key string) bool {
	inj := active.Load()
	if inj == nil {
		return false
	}
	return inj.hit(site, key)
}

// StallDelay returns the configured stall duration when the fault at site
// fires for key, and zero otherwise.
func StallDelay(site Site, key string) time.Duration {
	inj := active.Load()
	if inj == nil {
		return 0
	}
	s := inj.sites[site]
	if s == nil || s.sched.Delay <= 0 {
		return 0
	}
	if !inj.hit(site, key) {
		return 0
	}
	return s.sched.Delay
}

// ErrorAt returns a *Fault when the fault at site fires for key, and nil
// otherwise — sugar for the common "return an injected error" probe.
func ErrorAt(site Site, key string) error {
	if !Hit(site, key) {
		return nil
	}
	return &Fault{Site: site, Key: key}
}

// Fired returns how many times site has fired on the installed injector
// (0 when none is installed).
func Fired(site Site) uint64 {
	inj := active.Load()
	if inj == nil {
		return 0
	}
	s := inj.sites[site]
	if s == nil {
		return 0
	}
	return s.fires.Load()
}

func (inj *Injector) hit(site Site, key string) bool {
	s := inj.sites[site]
	if s == nil {
		return false
	}
	if s.sched.Key != "" && !strings.Contains(key, s.sched.Key) {
		return false
	}
	n := s.hits.Add(1)
	fire := false
	for _, o := range s.sched.Occurrences {
		if o == n {
			fire = true
			break
		}
	}
	if !fire && s.sched.Prob > 0 {
		k := key
		if k == "" {
			k = strconv.FormatUint(n, 10)
		}
		fire = draw(inj.seed, site, k) < s.sched.Prob
	}
	if !fire {
		return false
	}
	for {
		f := s.fires.Load()
		if s.sched.MaxFires > 0 && f >= s.sched.MaxFires {
			return false
		}
		if s.fires.CompareAndSwap(f, f+1) {
			return true
		}
	}
}

// draw maps (seed, site, key) to a uniform float64 in [0, 1). FNV-1a over
// the inputs feeds a splitmix64 finaliser so single-bit key changes decide
// independently.
func draw(seed uint64, site Site, key string) float64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime }
	for i := 0; i < 8; i++ {
		mix(byte(seed >> (8 * i)))
	}
	for i := 0; i < len(site); i++ {
		mix(site[i])
	}
	mix(0)
	for i := 0; i < len(key); i++ {
		mix(key[i])
	}
	// splitmix64 finaliser.
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(uint64(1)<<53)
}

// Fault is the error an injected failure surfaces as. Callers can recognise
// injected faults with errors.As to keep chaos assertions precise.
type Fault struct {
	Site Site
	Key  string
}

// Error implements the error interface.
func (f *Fault) Error() string {
	if f.Key == "" {
		return fmt.Sprintf("faultinject: injected fault at %s", f.Site)
	}
	return fmt.Sprintf("faultinject: injected fault at %s (%s)", f.Site, f.Key)
}

// ParseSpec parses a fault plan from the CLI syntax: semicolon-separated
// site clauses, each `site:opt=val,...` with options
//
//	p=0.25       per-hit keyed probability in [0,1]
//	occ=1+4+9    1-based occurrence indices that always fire
//	max=3        cap on total fires at the site
//	delay=200ms  non-negative stall duration (stall sites)
//	key=fig4/a   only probes whose key contains this substring are eligible
//
// A bare `site` clause with no options fires on every hit (p=1), as does a
// clause that sets no trigger (no p= and no occ=) — `worker-die:key=X`
// fires on every probe for X.
func ParseSpec(spec string) (map[Site]Schedule, error) {
	plan := make(map[Site]Schedule)
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, opts, hasOpts := strings.Cut(clause, ":")
		site := Site(strings.TrimSpace(name))
		if !knownSite(site) {
			return nil, fmt.Errorf("faultinject: unknown site %q (have %v)", site, Sites())
		}
		if _, dup := plan[site]; dup {
			return nil, fmt.Errorf("faultinject: site %q specified twice", site)
		}
		var sched Schedule
		if !hasOpts || strings.TrimSpace(opts) == "" {
			sched.Prob = 1
			plan[site] = sched
			continue
		}
		for _, opt := range strings.Split(opts, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(opt), "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: site %q: option %q is not key=value", site, opt)
			}
			var err error
			switch k {
			case "p":
				sched.Prob, err = strconv.ParseFloat(v, 64)
			case "occ":
				for _, part := range strings.Split(v, "+") {
					var o uint64
					o, err = strconv.ParseUint(part, 10, 64)
					if err != nil || o == 0 {
						err = fmt.Errorf("occurrence %q is not a positive integer", part)
						break
					}
					sched.Occurrences = append(sched.Occurrences, o)
				}
			case "max":
				sched.MaxFires, err = strconv.ParseUint(v, 10, 64)
			case "delay":
				sched.Delay, err = time.ParseDuration(v)
			case "key":
				if v == "" {
					err = fmt.Errorf("key filter must be non-empty")
				}
				sched.Key = v
			default:
				err = fmt.Errorf("unknown option %q", k)
			}
			if err != nil {
				return nil, fmt.Errorf("faultinject: site %q: %v", site, err)
			}
		}
		if err := sched.validate(); err != nil {
			return nil, fmt.Errorf("faultinject: site %q: %v", site, err)
		}
		if sched.Prob == 0 && len(sched.Occurrences) == 0 {
			// No trigger given (e.g. only key= or delay=): fire on every
			// eligible hit, matching the bare-clause behaviour.
			sched.Prob = 1
		}
		plan[site] = sched
	}
	if len(plan) == 0 {
		return nil, fmt.Errorf("faultinject: empty fault spec")
	}
	return plan, nil
}
