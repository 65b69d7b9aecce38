// Command perfbench is the repository's host-time benchmark. It runs one
// named workload against the deepheal packages in-process, checks that the
// simulated outputs match the digest recorded for the workload and seed,
// and prints its metrics as one JSON object on the last line of stdout:
// end-to-end metrics on an untraced run (--trace 0), per-layer metrics on a
// traced run (--trace 1). See README.md for the workloads and metrics.
//
//	perfbench --workload chip-16x16 --seed 1 --seconds 20 --trace 0
//	perfbench diff old.json new.json   # per-layer change report
//	perfbench record                   # regenerate digests.json
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"time"

	"deepheal/internal/campaign"
	"deepheal/internal/core"
	"deepheal/internal/fleet"
	"deepheal/internal/obs"
)

// variants is how many distinct input sets the seeds map onto; digests.json
// records the expected output digest of each. Every round of a run uses its
// seed's variant, so a traced run's per-layer counts repeat exactly.
const variants = 8

func variantOf(seed int64) int { return int(uint64(seed) % variants) }

//go:embed digests.json
var digestsJSON []byte

// result is the full record of one run, written to the output directory.
// Its summary (correct, attempted, failed, metrics) is the last stdout line.
type result struct {
	Host      host               `json:"host"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Variant   int                `json:"variant"`
	Trace     bool               `json:"trace"`
	Rounds    int                `json:"rounds"`
	RoundWall []float64          `json:"round_wall_s"`
	Samples   map[string]int     `json:"samples"`
	TailPct   map[string]float64 `json:"tail_pct,omitempty"`
	Digests   []string           `json:"digests"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "diff":
			os.Exit(diffMain(os.Args[2:]))
		case "record":
			os.Exit(recordMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v) and --trace 0|1\n", workloadNames())
		return 2
	}
	want, err := expectedDigests(w.name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp := filepath.Join(*out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var rec *recorder
	if *trace == 1 {
		rec = newRecorder()
	}
	res, err := measure(context.Background(), w, fullConfig(tmp), *seed, time.Duration(*seconds*float64(time.Second)), rec, want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	base := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
	if err := writeJSON(base+".json", res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if rec != nil {
		if err := rec.writeJSONL(base + ".spans.jsonl"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	info, _ := json.Marshal(map[string]any{"host": res.Host, "rounds": res.Rounds,
		"samples": res.Samples, "tail_pct": res.TailPct, "result": base + ".json"})
	fmt.Println(string(info))
	last, err := json.Marshal(map[string]any{"correct": res.Correct, "attempted": res.Attempted,
		"failed": res.Failed, "metrics": res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(last))
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// expectedDigests returns the recorded output digest of every variant of
// a workload.
func expectedDigests(workload string) (map[int]string, error) {
	var table map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &table); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	want := map[int]string{}
	for v := 0; v < variants; v++ {
		d := table[workload][strconv.Itoa(v)]
		if d == "" {
			return nil, fmt.Errorf("digests.json has no digest for %s variant %d", workload, v)
		}
		want[v] = d
	}
	return want, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// enableMetrics points every instrumented package at reg (nil disables).
func enableMetrics(reg *obs.Registry) {
	core.EnableMetrics(reg)
	campaign.EnableMetrics(reg)
	fleet.EnableMetrics(reg)
}

// A run times at least minSetups set-ups, and cheap set-ups until they add
// up to setupBudget or maxSetups samples: when rounds alone give fewer, it
// sets up (and tears down) extra instances for setup_s alone.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

// measure runs rounds of w until seconds have passed. An untraced run (nil
// rec) times every round and reports end-to-end metrics. A traced run
// alternates untraced and traced rounds: traced rounds enable a fresh
// metrics registry and record spans, and give the per-layer metrics; the
// untraced ones give the baseline for trace.overhead_frac. A round whose
// output digest differs from want[variant] (unless want is nil) fails
// every op of the run and ends it.
func measure(ctx context.Context, w workload, cfg config, seed int64, seconds time.Duration, rec *recorder, want map[int]string) (*result, error) {
	variant := variantOf(seed)
	res := &result{Host: fingerprint(), Workload: w.name, Seed: seed, Variant: variant,
		Trace: rec != nil, Correct: true, Samples: map[string]int{}}
	var setups, walls, tracedWalls []float64
	var ops, queries []time.Duration
	layers := map[string][]float64{}

	if w.warm != nil {
		if err := w.warm(ctx, cfg); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
	}
	start := time.Now()
	for i := 0; ; i++ {
		traced := rec != nil && i%2 == 1
		var reg *obs.Registry
		var rrec *recorder
		if traced {
			reg, rrec = obs.NewRegistry(), rec
		}
		enableMetrics(reg)
		t0 := time.Now()
		r, err := w.setup(ctx, cfg, variant, rrec, reg)
		if err != nil {
			enableMetrics(nil)
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		before := reg.Snapshot()
		root := rrec.id()
		t1 := time.Now()
		o, err := r.run(ctx, root)
		t2 := time.Now()
		rrec.add(root, 0, "round", t1, t2, map[string]any{"round": i})
		after := reg.Snapshot()
		r.close()
		enableMetrics(nil)
		debug.FreeOSMemory()

		res.Rounds++
		if err == nil && want != nil && o.digest != want[variant] {
			err = fmt.Errorf("variant %d output digest %s, recorded %s", variant, o.digest, want[variant])
		}
		res.Digests = append(res.Digests, o.digest)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s round %d: %v\n", w.name, i, err)
			res.Correct = false
			res.Attempted += max(o.attempted, 1)
			res.Failed = res.Attempted
			break
		}
		res.Attempted += o.attempted
		res.Failed += o.failed
		wall := o.wall.Seconds()
		res.RoundWall = append(res.RoundWall, wall)
		if traced {
			tracedWalls = append(tracedWalls, wall)
			for k, v := range layerValues(before, after) {
				layers[k] = append(layers[k], v)
			}
			for k, v := range o.layers {
				layers[k] = append(layers[k], v)
			}
		} else {
			walls = append(walls, wall)
			ops = append(ops, o.ops...)
			queries = append(queries, o.queries...)
		}
		minRounds := 1
		if rec != nil {
			minRounds = 2
		}
		if res.Rounds >= minRounds && time.Since(start) >= seconds {
			break
		}
	}
	setupTotal := 0.0
	for _, s := range setups {
		setupTotal += s
	}
	for res.Correct && (len(setups) < minSetups ||
		(len(setups) < maxSetups && setupTotal < setupBudget.Seconds())) {
		t0 := time.Now()
		r, err := w.setup(ctx, cfg, variant, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		d := time.Since(t0).Seconds()
		setups = append(setups, d)
		setupTotal += d
		r.close()
		debug.FreeOSMemory()
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	res.Samples["setups"] = len(setups)

	res.Metrics = map[string]metric{}
	if rec == nil {
		opMS, queryMS := millis(ops), millis(queries)
		opTail, opPct := tail(opMS)
		queryTail, queryPct := tail(queryMS)
		res.Samples["ops"], res.Samples["queries"] = len(ops), len(queries)
		res.TailPct = map[string]float64{"op": opPct, "query": queryPct}
		values := map[string]float64{
			"setup_s":       median(setups),
			"wall_s":        median(walls),
			"op_p50_ms":     median(opMS),
			"op_tail_ms":    opTail,
			"query_p50_ms":  median(queryMS),
			"query_tail_ms": queryTail,
			"peak_rss_mb":   peakRSSMB(),
			"success_rate":  1 - float64(res.Failed)/float64(max(res.Attempted, 1)),
		}
		for _, s := range endToEnd {
			res.Metrics[s.name] = metric{values[s.name], s.unit}
		}
		return res, nil
	}
	res.Samples["traced_rounds"] = len(tracedWalls)
	res.Samples["spans"] = len(rec.all())
	if len(walls) > 0 && len(tracedWalls) > 0 {
		layers["trace.overhead_frac"] = []float64{median(tracedWalls)/median(walls) - 1}
	}
	for _, s := range perLayer() {
		res.Metrics[s.name] = metric{median(layers[s.name]), s.unit}
	}
	return res, nil
}

// recordMain prints a fresh digests.json: one untraced round of every
// workload and input variant at full size.
func recordMain(args []string) int {
	if len(args) > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench record > digests.json")
		return 2
	}
	tmp := filepath.Join(".bench_build", "perfbench", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	table := map[string]map[string]string{}
	for _, w := range workloads {
		table[w.name] = map[string]string{}
		for v := 0; v < variants; v++ {
			t0 := time.Now()
			res, err := measure(context.Background(), w, fullConfig(tmp), int64(v), 0, nil, nil)
			if err == nil && !res.Correct {
				err = errors.New("round failed")
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: record %s variant %d: %v\n", w.name, v, err)
				return 1
			}
			table[w.name][strconv.Itoa(v)] = res.Digests[0]
			fmt.Fprintf(os.Stderr, "%s variant %d: %s (%.1fs, wall %.2fs, setup %.3fs)\n", w.name, v,
				res.Digests[0], time.Since(t0).Seconds(), res.Metrics["wall_s"].Value, res.Metrics["setup_s"].Value)
		}
	}
	data, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}
