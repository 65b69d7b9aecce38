package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// change is one metric's movement between two results.
type change struct {
	Name     string
	Unit     string
	Old, New float64
	// Rel is (New-Old)/|Old|; ±Inf when Old is 0 and New is not.
	Rel float64
}

// compare lists every metric of two results by size of relative change,
// largest first. Results measured on different hosts or toolchains, or of
// different workloads or kinds of run, are refused.
func compare(a, b *result) ([]change, error) {
	if a.Host != b.Host {
		return nil, fmt.Errorf("host fingerprints differ: %+v vs %+v", a.Host, b.Host)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return nil, fmt.Errorf("results are of different runs: %s (trace %v) vs %s (trace %v)",
			a.Workload, a.Trace, b.Workload, b.Trace)
	}
	names := map[string]string{}
	for k, m := range a.Metrics {
		names[k] = m.Unit
	}
	for k, m := range b.Metrics {
		names[k] = m.Unit
	}
	var out []change
	for name := range names {
		c := change{Name: name, Unit: names[name], Old: a.Metrics[name].Value, New: b.Metrics[name].Value}
		switch d := c.New - c.Old; {
		case d == 0:
		case c.Old == 0:
			c.Rel = math.Inf(int(math.Copysign(1, d)))
		default:
			c.Rel = d / math.Abs(c.Old)
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if ri, rj := math.Abs(out[i].Rel), math.Abs(out[j].Rel); ri != rj {
			return ri > rj
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

func writeChanges(w io.Writer, changes []change) {
	fmt.Fprintf(w, "%-34s %14s %14s %9s  %s\n", "metric", "old", "new", "change", "unit")
	for _, c := range changes {
		fmt.Fprintf(w, "%-34s %14.6g %14.6g %+8.1f%%  %s\n", c.Name, c.Old, c.New, 100*c.Rel, c.Unit)
	}
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// diffMain prints the per-layer change report between two result files.
func diffMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench diff old.json new.json")
		return 2
	}
	a, err := readResult(args[0])
	if err == nil {
		var b *result
		if b, err = readResult(args[1]); err == nil {
			var changes []change
			if changes, err = compare(a, b); err == nil {
				writeChanges(os.Stdout, changes)
				return 0
			}
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench diff:", err)
	return 1
}
