package main

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// startServe runs the serve subcommand in-process against a free port and
// returns its base URL, once ready, plus a shutdown function that simulates SIGTERM
// (cancels the context, as withSignalHandling would) and waits for the
// clean exit.
func startServe(t *testing.T, extra ...string) (base string, shutdown func()) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-addr-file", addrFile}, extra...)
	go func() { done <- run(ctx, args) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		data, err := os.ReadFile(addrFile)
		if err == nil {
			base = "http://" + strings.TrimSpace(string(data))
			break
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("serve did not come up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The address is published before a checkpoint restore finishes; wait
	// for readiness so no query sees a half-restored fleet.
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("serve did not become ready: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return base, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("serve exited with error: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("serve did not exit after shutdown signal")
		}
	}
}

// do issues one request and returns the response body.
func do(t *testing.T, method, url, body string, want int) string {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d (body %s)", method, url, resp.StatusCode, want, data)
	}
	return string(data)
}

// TestServeCheckpointRestartIdentical is the serve end-to-end: register
// chips over HTTP, step them, query, SIGTERM (checkpoint), restart from
// the checkpoint and verify the restarted service answers the same queries
// byte-identically.
func TestServeCheckpointRestartIdentical(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	base, shutdown := startServe(t, "-checkpoint", ckpt, "-workers", "2")

	do(t, "GET", base+"/healthz", "", http.StatusOK)
	do(t, "POST", base+"/v1/chips", `{"id": "e2e-0", "steps": 50, "seed": 11}`, http.StatusCreated)
	do(t, "POST", base+"/v1/chips",
		`{"id": "e2e-1", "steps": 50, "seed": 12, "corner": "fast", "policy": "no-recovery"}`,
		http.StatusCreated)
	do(t, "POST", base+"/v1/step", `{"steps": 8}`, http.StatusOK)
	do(t, "POST", base+"/v1/chips/e2e-0/step", `{"steps": 3}`, http.StatusOK)

	queries := []string{"/v1/chips", "/v1/chips/e2e-0", "/v1/chips/e2e-1", "/v1/chips/e2e-1/schedule"}
	before := make([]string, len(queries))
	for i, q := range queries {
		before[i] = do(t, "GET", base+q, "", http.StatusOK)
	}
	if !strings.Contains(before[1], `"step": 11`) {
		t.Fatalf("chip e2e-0 not at step 11:\n%s", before[1])
	}
	shutdown()
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("shutdown left no checkpoint: %v", err)
	}

	base2, shutdown2 := startServe(t, "-checkpoint", ckpt, "-workers", "2")
	defer shutdown2()
	for i, q := range queries {
		after := do(t, "GET", base2+q, "", http.StatusOK)
		if after != before[i] {
			t.Errorf("restored fleet answers %s differently:\nbefore: %s\nafter:  %s", q, before[i], after)
		}
	}

	// The restored fleet keeps evolving: stepping must work and advance.
	stepped := do(t, "POST", base2+"/v1/chips/e2e-0/step", `{"steps": 1}`, http.StatusOK)
	if !strings.Contains(stepped, `"step": 12`) {
		t.Errorf("restored chip did not advance:\n%s", stepped)
	}
}

// TestServeMetricsExposed checks the obs metrics ride the fleet endpoint.
func TestServeMetricsExposed(t *testing.T) {
	base, shutdown := startServe(t)
	defer shutdown()
	do(t, "POST", base+"/v1/chips", `{"id": "m0", "steps": 20}`, http.StatusCreated)
	do(t, "POST", base+"/v1/step", `{"steps": 2}`, http.StatusOK)
	expo := do(t, "GET", base+"/metrics", "", http.StatusOK)
	for _, want := range []string{
		"deepheal_fleet_chips 1",
		"deepheal_fleet_steps_total 2",
		"deepheal_fleet_batch_seconds_count 1",
		"deepheal_sim_steps_total 2", // core cascade is live too
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func TestServeRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"serve", "-addr"}); err == nil {
		t.Error("dangling -addr accepted")
	}
	if err := run(context.Background(), []string{"serve", "positional"}); err == nil {
		t.Error("positional argument accepted")
	}
}
