// Package golden pins rendered outputs to committed sha256 digests. The
// parallel, distributed and resume identity tests compare two runs of the
// same build, so a change that moves every number the same way in every
// mode passes them all; a committed digest catches it.
//
// A digest file holds one "<sha256 hex>  <name>" line per output; blank
// lines and lines starting with '#' are ignored. A deliberate output change
// replaces the line (the failing test prints the replacement) and names the
// reason in CHANGES.md.
package golden

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"testing"
)

// recordedArch is the architecture the digests are recorded on. Elsewhere
// the compiler may fuse x*y+z into one FMA instruction, which changes the
// last bits of the simulated floats, so the check skips there.
const recordedArch = "amd64"

// Check fails t unless the sha256 of out equals the digest recorded for
// name in the digest file at path. On another architecture it skips t.
func Check(t testing.TB, path, name string, out []byte) {
	t.Helper()
	if runtime.GOARCH != recordedArch {
		t.Skipf("output digests are recorded on %s; %s may fuse multiply-adds and differ in the last bits",
			recordedArch, runtime.GOARCH)
	}
	sum := sha256.Sum256(out)
	got := hex.EncodeToString(sum[:])
	want, err := lookup(path, name)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got != want {
		if want == "" {
			want = "none"
		}
		t.Errorf("%s: output digest %s, recorded %s. If the change is deliberate, put this line in %s:\n%s  %s",
			name, got, want, path, got, name)
	}
}

// lookup returns the digest recorded for name in the file at path, or ""
// if the file has no line for it.
func lookup(path, name string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if digest, id, ok := strings.Cut(line, "  "); ok && id == name {
			return digest, nil
		}
	}
	return "", nil
}
