package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"time"

	"deepheal/internal/campaign"
	"deepheal/internal/core"
	"deepheal/internal/engine"
	"deepheal/internal/experiments"
	"deepheal/internal/fleet"
	"deepheal/internal/obs"
)

// config sizes the workloads. fullConfig is what the benchmark measures;
// the self-tests shrink it.
type config struct {
	workers int // engine and campaign pool size

	chipRows, chipCols, chipSteps int // chip-16x16 (0 steps = default horizon)

	experiments []string // campaign-all (nil = every registered experiment)

	fleetChips, fleetTicks                int // fleet-1k
	churnChips, churnResident, churnTicks int // fleet-churn
	queries                               int // schedule queries per fleet tick

	tmp string // parent directory of the campaign journals
}

func fullConfig(tmp string) config {
	return config{
		workers:  2,
		chipRows: 16, chipCols: 16,
		fleetChips: 1000, fleetTicks: 30,
		churnChips: 64, churnResident: 16, churnTicks: 24,
		queries: 8,
		tmp:     tmp,
	}
}

// outcome is what one round of a workload did.
type outcome struct {
	ops, queries      []time.Duration
	wall              time.Duration // the timed section alone, without output checks
	attempted, failed int
	digest            string
	// layers holds per-layer values only the benchmark itself can measure
	// (span sums, scheduling models); filled on traced rounds only.
	layers map[string]float64
}

// round is one freshly set-up instance of a workload: setup builds it, run
// drives its timed section once, close releases it.
type round interface {
	run(ctx context.Context, root int64) (outcome, error)
	close()
}

// workload is one named input set of the benchmark. BENCHMARK.json and
// README.md say why each was chosen.
type workload struct {
	name string
	// setup builds a round for an input variant. Traced rounds get a
	// recorder for spans and the registry the metrics are enabled on;
	// untraced rounds get nil for both.
	setup func(ctx context.Context, cfg config, variant int, rec *recorder, reg *obs.Registry) (round, error)
	// warm, if set, runs once before the first round, untimed.
	warm func(ctx context.Context, cfg config) error
}

var workloads = []workload{
	{"chip-16x16", setupChip, nil},
	{"campaign-all", setupCampaign, warmCampaign},
	{"fleet-1k", setupFleet1k, nil},
	{"fleet-churn", setupFleetChurn, nil},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// --- chip-16x16 -----------------------------------------------------------

type chipRound struct {
	sim    *core.Simulator
	rec    *recorder
	stepID int64 // span of the step in flight, parent of its stage spans
}

func setupChip(_ context.Context, cfg config, variant int, rec *recorder, _ *obs.Registry) (round, error) {
	c := core.ConfigForGrid(cfg.chipRows, cfg.chipCols)
	if cfg.chipSteps > 0 {
		c.Steps = cfg.chipSteps
	}
	c.Seed = int64(1 + variant)
	policy, err := core.NewPolicy("deep-healing")
	if err != nil {
		return nil, err
	}
	r := &chipRound{rec: rec}
	opts := []core.Option{core.WithWorkers(cfg.workers)}
	if rec != nil {
		opts = append(opts, core.WithStageTime(func(stage engine.StageName, d time.Duration) {
			end := time.Now()
			rec.add(rec.id(), r.stepID, "core."+string(stage), end.Add(-d), end, nil)
		}))
	}
	if r.sim, err = core.NewSimulator(c, policy, opts...); err != nil {
		return nil, err
	}
	return r, nil
}

// run steps the whole horizon one step per op; after each step the query
// renders the live Progress as the JSON a status endpoint would serve.
func (r *chipRound) run(ctx context.Context, root int64) (outcome, error) {
	var o outcome
	total := r.sim.Progress().Steps
	start := time.Now()
	for r.sim.Step() < total {
		r.stepID = r.rec.id()
		t0 := time.Now()
		err := r.sim.RunSteps(ctx, 1)
		t1 := time.Now()
		r.rec.add(r.stepID, root, "core.RunSteps", t0, t1, nil)
		o.attempted++
		if err != nil {
			return o, err
		}
		o.ops = append(o.ops, t1.Sub(t0))

		q0 := time.Now()
		_, err = json.Marshal(r.sim.Progress())
		o.queries = append(o.queries, time.Since(q0))
		o.attempted++
		if err != nil {
			o.failed++
		}
	}
	o.wall = time.Since(start)
	rep, err := r.sim.RunContext(ctx)
	if err != nil {
		return o, err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n%+v\n", *rep, r.sim.Progress().Last)
	o.digest = sum(h)
	return o, nil
}

func (r *chipRound) close() { r.sim.Close() }

// --- campaign-all ---------------------------------------------------------

type campaignRound struct {
	tasks   []campaign.Task // the experiments, as registered
	units   []campaign.Task // what campaign.Run is given: see interleave
	from    [][2]int        // unit → (experiment, point) in tasks
	workers int
	dir     string
	journal *campaign.Journal
	rec     *recorder
	root    int64
}

// setupCampaign declares the same units in the same order whatever the
// seed: workers take points first in, first out, so the declaration order
// sets which points run side by side, and with it every point's wall time
// and the round's makespan. The campaign has no other input to vary.
func setupCampaign(_ context.Context, cfg config, _ int, rec *recorder, _ *obs.Registry) (round, error) {
	tasks, err := experiments.Plans(cfg.experiments...)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.tmp, "campaign-")
	if err != nil {
		return nil, err
	}
	journal, err := campaign.OpenJournal(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	units, from := interleave(tasks)
	r := &campaignRound{tasks: tasks, units: units, from: from, workers: cfg.workers,
		dir: dir, journal: journal, rec: rec}
	if rec != nil {
		r.wrapPoints()
	}
	return r, nil
}

// interleave declares every point as a task of its own and orders them so
// that each experiment's points are spread evenly over the declaration
// order: the k-th of an experiment's n points sits at (k+½)/n, ties in
// registry order. Declared experiment by experiment, the 24 multiplier
// points, where the median point time lies, would run in one stretch of
// under half a second per round, and op_p50_ms would rest on a few such
// stretches of host time per run. Points keep their keys and hashes, so
// memoisation and the journal see the same campaign.
func interleave(tasks []campaign.Task) (units []campaign.Task, from [][2]int) {
	type slot struct {
		pos    float64
		ti, pi int
	}
	var slots []slot
	for ti, t := range tasks {
		for pi := range t.Points {
			slots = append(slots, slot{(float64(pi) + 0.5) / float64(len(t.Points)), ti, pi})
		}
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].pos < slots[j].pos })
	for _, s := range slots {
		p := tasks[s.ti].Points[s.pi]
		units = append(units, campaign.Task{ID: p.Key, Points: []campaign.Point{p},
			Assemble: func(results []any) (any, error) { return results[0], nil }})
		from = append(from, [2]int{s.ti, s.pi})
	}
	return units, from
}

// warmCampaign runs every point once on a single worker. The BTI grids and
// their kernel caches are process-wide, and a full kernel cache keeps the
// kernels it admitted first for good. With two workers racing to admit them,
// that resident set, and with it every later round's hit rate, would differ
// from run to run; filling the caches serially fixes it.
func warmCampaign(ctx context.Context, cfg config) error {
	tasks, err := experiments.Plans(cfg.experiments...)
	if err != nil {
		return err
	}
	_, err = campaign.Run(ctx, tasks, campaign.Options{Workers: 1})
	return err
}

// wrapPoints records a span around every Point.Run. Memoised points never
// call Run, so they record none.
func (r *campaignRound) wrapPoints() {
	for u := range r.units {
		p := &r.units[u].Points[0]
		run, task, key := p.Run, r.tasks[r.from[u][0]].ID, p.Key
		p.Run = func(ctx context.Context) (any, error) {
			t0 := time.Now()
			v, err := run(ctx)
			t1 := time.Now()
			r.rec.add(r.rec.id(), r.root, "campaign.point", t0, t1,
				map[string]any{"task": task, "key": key})
			return v, err
		}
	}
}

// resumes is how often a campaign round re-reads its finished journal.
const resumes = 20

// run executes the campaign and assembles every experiment from its points;
// one op is one computed point (its wall time as the engine measured it).
// One query is the read a user makes of a finished campaign: reopen its
// journal and run the campaign again, restoring every point, with results
// that must hash the same as the computed ones.
func (r *campaignRound) run(ctx context.Context, root int64) (outcome, error) {
	var o outcome
	r.root = root
	t0 := time.Now()
	outs, err := campaign.Run(ctx, r.units, campaign.Options{Workers: r.workers, Journal: r.journal})
	var results []any
	if err == nil {
		results, err = r.assemble(outs)
	}
	o.wall = time.Since(t0)
	if err != nil {
		return o, err
	}
	if err := r.journal.Close(); err != nil {
		return o, err
	}
	var computed []float64
	busy := map[string]float64{} // experiment → summed computed-point seconds
	for u, out := range outs {
		for _, p := range out.Points {
			o.attempted++
			if p.Err != "" {
				o.failed++
			}
			if p.Source == "run" {
				o.ops = append(o.ops, time.Duration(p.WallMS*1e6))
				computed = append(computed, p.WallMS/1e3)
				busy[r.tasks[r.from[u][0]].ID] += p.WallMS / 1e3
			}
		}
	}
	if o.digest, err = r.digest(results); err != nil {
		return o, err
	}
	for k := 0; k < resumes; k++ {
		q0 := time.Now()
		digest, err := r.resume(ctx)
		o.queries = append(o.queries, time.Since(q0))
		o.attempted++
		if err != nil || digest != o.digest {
			o.failed++
		}
	}

	if r.rec != nil {
		o.layers = map[string]float64{}
		total := 0.0
		for _, t := range r.tasks {
			o.layers["experiments."+t.ID+"_s"] = busy[t.ID]
			total += busy[t.ID]
		}
		o.layers["campaign.point_busy_s"] = total
		o.layers["campaign.pool_efficiency"] = total / (float64(r.workers) * o.wall.Seconds())
		o.layers["campaign.lpt_makespan_s"] = lptMakespan(computed, r.workers)
	}
	return o, nil
}

// assemble hands every experiment the values of its points, in its own
// point order, and returns the assembled results in registry order.
func (r *campaignRound) assemble(outs []campaign.Outcome) ([]any, error) {
	values := make([][]any, len(r.tasks))
	for i, t := range r.tasks {
		values[i] = make([]any, len(t.Points))
	}
	for u, out := range outs {
		values[r.from[u][0]][r.from[u][1]] = out.Value
	}
	results := make([]any, len(r.tasks))
	for i, t := range r.tasks {
		v, err := t.Assemble(values[i])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.ID, err)
		}
		results[i] = v
	}
	return results, nil
}

// resume reruns the campaign over its finished journal and returns the
// digest of the restored results.
func (r *campaignRound) resume(ctx context.Context) (string, error) {
	j, err := campaign.OpenJournal(r.dir)
	if err != nil {
		return "", err
	}
	defer j.Close()
	outs, err := campaign.Run(ctx, r.units, campaign.Options{Workers: r.workers, Journal: j})
	if err != nil {
		return "", err
	}
	results, err := r.assemble(outs)
	if err != nil {
		return "", err
	}
	return r.digest(results)
}

// digest hashes every experiment's rendered result, keyed by id.
func (r *campaignRound) digest(results []any) (string, error) {
	order := make([]int, len(r.tasks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return r.tasks[order[a]].ID < r.tasks[order[b]].ID })
	h := sha256.New()
	for _, i := range order {
		res, ok := results[i].(experiments.Result)
		if !ok {
			return "", fmt.Errorf("%s assembled a %T, not a Result", r.tasks[i].ID, results[i])
		}
		fmt.Fprintf(h, "== %s\n%s\n", r.tasks[i].ID, res.Format())
	}
	return sum(h), nil
}

func (r *campaignRound) close() {
	r.journal.Close()
	os.RemoveAll(r.dir)
}

// lptMakespan models the campaign's best-case schedule: durations assigned
// longest first to the least-loaded of w workers; the busiest load wins.
func lptMakespan(durations []float64, w int) float64 {
	d := append([]float64(nil), durations...)
	sort.Sort(sort.Reverse(sort.Float64Slice(d)))
	loads := make([]float64, w)
	for _, x := range d {
		least := 0
		for i := range loads {
			if loads[i] < loads[least] {
				least = i
			}
		}
		loads[least] += x
	}
	makespan := 0.0
	for _, l := range loads {
		makespan = math.Max(makespan, l)
	}
	return makespan
}

// --- fleet-1k and fleet-churn ---------------------------------------------

type fleetRound struct {
	m       *fleet.Manager
	h       http.Handler
	queries [][]string // chip ids queried in each tick
	rec     *recorder
	batch   *obs.Histogram // deepheal_fleet_batch_seconds; nil when untraced
}

func setupFleet1k(ctx context.Context, cfg config, variant int, rec *recorder, reg *obs.Registry) (round, error) {
	return setupFleet(ctx, cfg, variant, rec, reg, cfg.fleetChips, 0, cfg.fleetTicks)
}

func setupFleetChurn(ctx context.Context, cfg config, variant int, rec *recorder, reg *obs.Registry) (round, error) {
	return setupFleet(ctx, cfg, variant, rec, reg, cfg.churnChips, cfg.churnResident, cfg.churnTicks)
}

func chipID(i int) string { return fmt.Sprintf("chip-%04d", i) }

// setupFleet registers the chips through the HTTP handler and steps one
// warm-up batch. The seed picks each chip's corner rotation and sensor seed
// and the chips queried after every tick.
func setupFleet(ctx context.Context, cfg config, variant int, rec *recorder, reg *obs.Registry, chips, resident, ticks int) (round, error) {
	m := fleet.NewManager(fleet.Options{Workers: cfg.workers, MaxResident: resident})
	r := &fleetRound{m: m, h: m.Handler(nil), rec: rec,
		batch: reg.Histogram("deepheal_fleet_batch_seconds", "", nil)}
	corners := fleet.CornerNames()
	for i := 0; i < chips; i++ {
		body := fmt.Sprintf(`{"id":%q,"corner":%q,"seed":%d}`,
			chipID(i), corners[(i+variant)%len(corners)], int64(variant)*1_000_003+int64(i)+1)
		if code, resp := r.serve(ctx, http.MethodPost, "/v1/chips", body); code != http.StatusCreated {
			m.Close()
			return nil, fmt.Errorf("register %s: %d %s", chipID(i), code, resp)
		}
	}
	if code, resp := r.serve(ctx, http.MethodPost, "/v1/step", `{"steps":1}`); code != http.StatusOK {
		m.Close()
		return nil, fmt.Errorf("warm-up batch: %d %.200s", code, resp)
	}
	rng := rand.New(rand.NewSource(int64(variant)))
	r.queries = make([][]string, ticks)
	for t := range r.queries {
		for q := 0; q < cfg.queries; q++ {
			r.queries[t] = append(r.queries[t], chipID(rng.Intn(chips)))
		}
	}
	return r, nil
}

// serve runs one request through the handler in-process, with no socket.
func (r *fleetRound) serve(ctx context.Context, method, path, body string) (int, []byte) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd).WithContext(ctx)
	w := httptest.NewRecorder()
	r.h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// suspendedField is the one status field that depends on scheduling: with
// two pool workers the LRU clock follows completion order, so which chips
// end a batch suspended varies. Physics never does.
var suspendedField = regexp.MustCompile(`"suspended": (true|false)`)

// run does one tick per entry of r.queries: the tick's schedule GETs (the
// queries), then one POST /v1/step {"steps":1} (the op); it ends by listing
// every chip. Set-up ended on a warm-up batch, so steps and queries
// alternate as in serving traffic. Ending each tick on a batch makes the
// residency counters repeat exactly: a cold chip a query rehydrates is one
// the next batch need not rehydrate.
func (r *fleetRound) run(ctx context.Context, root int64) (outcome, error) {
	var o outcome
	var selfSum time.Duration
	h := sha256.New()
	timed := func(method, path, body string) (int, []byte, time.Duration) {
		b0 := r.batch.Sum()
		t0 := time.Now()
		code, resp := r.serve(ctx, method, path, body)
		t1 := time.Now()
		o.attempted++
		if code/100 != 2 {
			o.failed++
		}
		if r.rec != nil {
			attrs := map[string]any{"method": method, "path": path, "status": code}
			if batch := r.batch.Sum() - b0; batch > 0 {
				attrs["batch_ms"] = batch * 1e3
				selfSum += t1.Sub(t0) - time.Duration(batch*1e9)
			}
			r.rec.add(r.rec.id(), root, "fleet.http", t0, t1, attrs)
		}
		return code, resp, t1.Sub(t0)
	}
	start := time.Now()
	for _, ids := range r.queries {
		for _, id := range ids {
			path := "/v1/chips/" + id + "/schedule"
			_, body, d := timed(http.MethodGet, path, "")
			o.queries = append(o.queries, d)
			fmt.Fprintf(h, "%s\n%s", path, body)
		}
		_, _, d := timed(http.MethodPost, "/v1/step", `{"steps":1}`)
		o.ops = append(o.ops, d)
	}
	o.wall = time.Since(start)
	_, list, _ := timed(http.MethodGet, "/v1/chips", "")
	h.Write(suspendedField.ReplaceAll(list, []byte(`"suspended": _`)))
	o.digest = sum(h)
	if r.rec != nil && len(o.ops) > 0 {
		o.layers = map[string]float64{"fleet.http_self_ms": float64(selfSum) / 1e6 / float64(len(o.ops))}
	}
	return o, nil
}

func (r *fleetRound) close() { r.m.Close() }
