// Package dist turns the campaign engine into a distributed executor. The
// unit of exchange is the campaign's existing point model: content-hashed,
// journaled, deterministic. A coordinator publishes the work queue as a
// manifest file in a shared campaign directory; N worker processes lease
// points (lease files with expiry, stolen when a worker dies), execute them
// and append results to per-worker CRC'd journal shards (fsynced, so an
// acknowledged point survives power loss); a merge step absorbs every shard
// into the campaign's canonical journal; and the final assembly is a plain
// single-process campaign.Run over the merged journal — which is what makes
// the distributed output byte-identical to a serial run by construction:
// every point either restores from the merged journal or is recomputed by
// the same deterministic Run that a serial campaign would have called.
//
// The transport is the filesystem (a shared directory is the v1 queue), but
// every coordination primitive — publish, lease, complete, fail — is a file
// with atomic create/rename semantics, so the directory can be on local
// disk, NFS, or replaced wholesale by a networked queue implementing the
// same contract.
//
// Failure model: a worker that dies mid-point leaves a lease that expires
// and is taken over by any surviving worker (or the coordinator's local
// participant); a worker that dies mid-append leaves a torn shard tail that
// the merge skips, recomputing only that point; a point that fails on a
// worker is marked failed and handed back to the coordinator's final run,
// where the ordinary retry/quarantine machinery (PR 5) applies.
package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"deepheal/internal/campaign"
)

// Directory layout inside the shared campaign dir.
const (
	manifestName  = "manifest.json"
	leasesDir     = "leases"
	shardsDir     = "shards"
	failedDir     = "failed"
	heartbeatsDir = "heartbeats"
)

// ManifestPoint is one distributable point of the published work queue.
type ManifestPoint struct {
	Seq  int    `json:"seq"`
	Task string `json:"task"`
	Key  string `json:"key"`
	Hash string `json:"hash"`
}

// Manifest is the coordinator-published work queue: the experiment ids the
// workers must re-plan (points carry no closures, so workers rebuild the
// identical task set from the registry and match points by content hash)
// plus every distributable point in declaration order.
type Manifest struct {
	Version     int             `json:"version"`
	Experiments []string        `json:"experiments"`
	Points      []ManifestPoint `json:"points"`
}

// manifestVersion guards the manifest wire format.
const manifestVersion = 1

// Publish writes the work queue for tasks into dir, atomically, so a worker
// polling for the manifest never observes a half-written file. Points with
// an empty hash or no New constructor cannot be exchanged through journals
// and are left to the coordinator's final run; everything else is listed in
// declaration order.
func Publish(dir string, experiments []string, tasks []campaign.Task) (*Manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dist: publish: %w", err)
	}
	if err := ensureLayout(dir); err != nil {
		return nil, fmt.Errorf("dist: publish: %w", err)
	}
	m := &Manifest{Version: manifestVersion, Experiments: experiments, Points: planPoints(tasks)}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("dist: publish: %w", err)
	}
	if err := writeAtomic(filepath.Join(dir, manifestName), append(data, '\n')); err != nil {
		return nil, fmt.Errorf("dist: publish: %w", err)
	}
	return m, nil
}

// ensureLayout creates the coordination subdirectories of a campaign dir.
// It runs on publish and on resume, so a manifest published before a layout
// change still gains the newer subdirectories.
func ensureLayout(dir string) error {
	for _, sub := range []string{leasesDir, shardsDir, failedDir, heartbeatsDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return err
		}
	}
	return nil
}

// LoadManifest reads a published manifest from dir.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	return parseManifest(data)
}

// parseManifest decodes a manifest file's bytes, refusing any version but
// the one this build writes.
func parseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("dist: manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("dist: manifest version %d, this build speaks %d", m.Version, manifestVersion)
	}
	return &m, nil
}

// WaitManifest polls dir until a manifest appears (a worker may start before
// its coordinator) or ctx expires.
func WaitManifest(ctx context.Context, dir string, poll time.Duration) (*Manifest, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		m, err := LoadManifest(dir)
		switch {
		case err == nil:
			return m, nil
		case !os.IsNotExist(err):
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("dist: waiting for manifest in %s: %w", dir, ctx.Err())
		case <-time.After(poll):
		}
	}
}

// writeTemp writes data whole to a fresh temp file in dir and returns its
// name. The name comes from os.CreateTemp, unique across processes and
// across goroutines of one process, so concurrent writers of one path (two
// workers stealing the same expired lease) never share a temp file. The
// dot prefix and the extension keep it out of every directory scan.
func writeTemp(dir string, data []byte) (string, error) {
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return "", err
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Chmod(0o644)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(f.Name())
		return "", werr
	}
	return f.Name(), nil
}

// writeAtomic writes data via temp file + rename so readers never observe a
// partial file.
func writeAtomic(path string, data []byte) error {
	tmp, err := writeTemp(filepath.Dir(path), data)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// lease is the on-disk claim a worker holds on a point's hash while
// computing it. Expiry is wall-clock: a worker that dies stops renewing,
// and after Expires any other worker may take over with an atomic rename.
// The takeover race is benign — two workers may briefly compute the same
// point, but points are deterministic and the merge deduplicates by hash.
//
// Attempts counts how many workers have claimed the point without ever
// completing or failure-marking it: it starts at 1, increments on every
// expiry steal, and is the poison-point detector — a point whose lease
// keeps expiring is killing the workers that touch it, and once Attempts
// reaches the configured maximum it is quarantined instead of stolen
// again. A clean completion or an ordinary Run failure removes the lease,
// so the counter only ever accumulates crashes.
type lease struct {
	Worker   string `json:"worker"`
	Key      string `json:"key"`
	Expires  int64  `json:"expires_unix_ms"`
	Attempts int    `json:"attempts"`
}

// leasePath names the lease file for a point hash. Leases are keyed by hash
// (not seq) so cross-experiment duplicate points share one claim and are
// computed once fleet-wide.
func leasePath(dir, hash string) string {
	n := len(hash)
	if n > 16 {
		n = 16
	}
	return filepath.Join(dir, leasesDir, hash[:n]+".lease")
}

// readLease parses the lease file at path. absent reports the file does not
// exist (the claim was released). A lease that exists but cannot be parsed
// — an empty or truncated file, trailing garbage — is reported as (zero
// lease, valid=false, absent=false, nil error): to every caller a corrupt
// claim is indistinguishable from an expired one with no attempt history,
// i.e. immediately stealable, never a parse failure that takes down
// Progress or the drain.
func readLease(path string) (held lease, valid, absent bool, err error) {
	cur, rerr := os.ReadFile(path)
	if rerr != nil {
		if os.IsNotExist(rerr) {
			return lease{}, false, true, nil
		}
		return lease{}, false, false, rerr
	}
	held, perr := parseLease(cur)
	if perr != nil {
		return lease{}, false, false, nil // torn or corrupt: expired-and-stealable
	}
	return held, true, false, nil
}

// parseLease decodes a lease file's bytes.
func parseLease(data []byte) (lease, error) {
	var l lease
	err := json.Unmarshal(data, &l)
	return l, err
}

// createLease publishes data at path only if no lease is there. The claim
// is written whole to a temp file of its own in the same directory (see
// writeTemp) and then hard-linked into place: the link fails with EEXIST
// while another claim is held, and the lease path never exists without its
// complete contents, so a reader can never mistake a claim being written
// for a torn one and steal it.
func createLease(path string, data []byte) (bool, error) {
	tmp, err := writeTemp(filepath.Dir(path), data)
	if err != nil {
		return false, err
	}
	defer os.Remove(tmp)
	if err := os.Link(tmp, path); err != nil {
		if os.IsExist(err) {
			return false, nil
		}
		return false, err
	}
	return true, nil
}

// leaseClaim is the result of one acquisition attempt.
type leaseClaim struct {
	ok       bool // the claim succeeded; compute under it
	stolen   bool // the claim was taken over from an expired holder
	attempts int  // total workers that have held the point, this claim included
	poisoned bool // not claimed: the expired holder had exhausted maxAttempts
	last     lease
}

// acquireLease claims hash for worker until now+ttl. A fresh claim starts
// the attempt counter at 1; stealing an expired (or corrupt) claim carries
// the counter forward. When the expired holder's attempt count has already
// reached maxAttempts (>0), the point is NOT re-stolen: the claim reports
// poisoned=true and the caller quarantines it — this is the brake that
// stops a point which crashes every worker that leases it from looping
// through lease-steal forever.
func acquireLease(dir, hash, key, worker string, ttl time.Duration, maxAttempts int) (leaseClaim, error) {
	path := leasePath(dir, hash)
	mine := lease{Worker: worker, Key: key, Expires: time.Now().Add(ttl).UnixMilli(), Attempts: 1}
	data, err := json.Marshal(mine)
	if err != nil {
		return leaseClaim{}, err
	}
	created, err := createLease(path, append(data, '\n'))
	if err != nil {
		return leaseClaim{}, err
	}
	if created {
		return leaseClaim{ok: true, attempts: 1}, nil
	}
	held, valid, absent, rerr := readLease(path)
	if rerr != nil || absent {
		// Transient read problem, or the holder released the claim between
		// our create and read: next scan retries.
		return leaseClaim{}, nil
	}
	if valid && time.Now().UnixMilli() < held.Expires {
		return leaseClaim{}, nil // live claim
	}
	if valid && maxAttempts > 0 && held.Attempts >= maxAttempts {
		return leaseClaim{poisoned: true, attempts: held.Attempts, last: held}, nil
	}
	// Expired (or corrupt) claim: take over atomically, carrying the attempt
	// history forward. A corrupt lease has no history; the counter restarts.
	mine.Attempts = held.Attempts + 1
	if data, err = json.Marshal(mine); err != nil {
		return leaseClaim{}, err
	}
	if err := writeAtomic(path, append(data, '\n')); err != nil {
		return leaseClaim{}, err
	}
	return leaseClaim{ok: true, stolen: true, attempts: mine.Attempts}, nil
}

// renewLease extends worker's claim on hash, preserving the attempt count.
// Best-effort: a renewal that loses a takeover race just rewrites the file,
// and the duplicated compute stays correct by determinism.
func renewLease(dir, hash, key, worker string, ttl time.Duration, attempts int) {
	data, err := json.Marshal(lease{Worker: worker, Key: key, Expires: time.Now().Add(ttl).UnixMilli(), Attempts: attempts})
	if err != nil {
		return
	}
	_ = writeAtomic(leasePath(dir, hash), append(data, '\n'))
}

// releaseLease drops the claim on hash. Best-effort — an expired leftover
// lease only delays a steal, never correctness.
func releaseLease(dir, hash string) { _ = os.Remove(leasePath(dir, hash)) }

// failure is the marker written when a point cannot be completed on the
// fleet. Two flavours share the format: an ordinary Run error (Quarantined
// false) hands the point back to the coordinator's final run, where the
// usual retry/quarantine machinery applies; a poison-point quarantine
// (Quarantined true, written when the point's lease died Attempts times
// across any workers) is terminal — the final run records it as a
// quarantined outcome with this marker's error instead of executing it
// again, preserving PR 5's exit-code-3 semantics without re-running code
// that kills whoever touches it.
type failure struct {
	Worker      string `json:"worker"`
	Key         string `json:"key"`
	Err         string `json:"err"`
	Attempts    int    `json:"attempts,omitempty"`
	Quarantined bool   `json:"quarantined,omitempty"`
}

// failedPath names the failure marker for a point hash.
func failedPath(dir, hash string) string {
	return filepath.Join(dir, failedDir, n16(hash)+".json")
}

// n16 truncates a hash to the 16-character prefix used for marker names.
func n16(hash string) string {
	if len(hash) > 16 {
		return hash[:16]
	}
	return hash
}

// markFailed records that a point failed on a worker with an ordinary Run
// error, after the given number of fleet-wide attempts.
func markFailed(dir, hash, key, worker string, attempts int, cause error) error {
	return writeFailure(dir, hash, failure{Worker: worker, Key: key, Err: cause.Error(), Attempts: attempts})
}

// markQuarantined records that a point is poisoned: its lease died attempts
// times across the fleet and it must never be leased — or executed by the
// final assembly — again. The lease file is removed afterwards so scans
// stop reporting an exhausted claim.
func markQuarantined(dir, hash, key string, attempts int, cause string) error {
	err := writeFailure(dir, hash, failure{
		Worker:      "quarantine",
		Key:         key,
		Err:         cause,
		Attempts:    attempts,
		Quarantined: true,
	})
	if err != nil {
		return err
	}
	metQuarantines.Inc()
	releaseLease(dir, hash)
	return nil
}

func writeFailure(dir, hash string, f failure) error {
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return writeAtomic(failedPath(dir, hash), append(data, '\n'))
}

// failedHashes lists the 16-char hash prefixes with failure markers.
func failedHashes(dir string) (map[string]bool, error) {
	entries, err := os.ReadDir(filepath.Join(dir, failedDir))
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]bool{}, nil
		}
		return nil, err
	}
	out := make(map[string]bool, len(entries))
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) == ".json" {
			out[name[:len(name)-len(".json")]] = true
		}
	}
	return out, nil
}

// readFailures loads every failure marker in dir, keyed by 16-char hash
// prefix. Markers that cannot be parsed (a torn write from a crashing
// worker) are reported as zero-value failures under their file's hash
// prefix: the point still counts as failed — the coordinator's final run
// recomputes it — rather than wedging the drain on a parse error.
func readFailures(dir string) (map[string]failure, error) {
	entries, err := os.ReadDir(filepath.Join(dir, failedDir))
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]failure{}, nil
		}
		return nil, err
	}
	out := make(map[string]failure, len(entries))
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) != ".json" {
			continue
		}
		h16 := name[:len(name)-len(".json")]
		var f failure
		if data, rerr := os.ReadFile(filepath.Join(dir, failedDir, name)); rerr == nil {
			_ = json.Unmarshal(data, &f) // corrupt marker: zero value, still failed
		}
		out[h16] = f
	}
	return out, nil
}

// shardFile names a worker's journal shard relative to the campaign dir.
func shardFile(worker string) string {
	return filepath.Join(shardsDir, worker+".jsonl")
}

// shardPaths lists the shard files currently present, sorted for a
// deterministic merge order.
func shardPaths(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, shardsDir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
