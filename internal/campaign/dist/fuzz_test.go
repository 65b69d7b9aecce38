package dist

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// FuzzParseLease feeds arbitrary bytes to the lease decoder. It must never
// panic, and a lease it accepts, marshalled back to JSON, must decode to
// the same lease. Seeded from the corrupt leases a live directory can hold
// and from claims the lease tests write.
func FuzzParseLease(f *testing.F) {
	for _, seed := range corruptLeases() {
		f.Add(seed)
	}
	for _, l := range []lease{
		{Worker: "w0", Key: "k", Expires: time.Unix(1700000000, 0).UnixMilli(), Attempts: 1},
		{Worker: "thief", Key: "t1/p3", Expires: 12, Attempts: 3},
		{},
	} {
		data, err := json.Marshal(l)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(data, '\n'))
	}
	f.Add([]byte(`{"worker":"w0","expires_unix_ms":1e400}`))
	f.Add([]byte(`{"attempts":-1,"unknown":true}`))
	f.Add([]byte("null"))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := parseLease(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(l)
		if err != nil {
			t.Fatalf("accepted lease %+v does not marshal: %v", l, err)
		}
		again, err := parseLease(out)
		if err != nil {
			t.Fatalf("re-marshalled lease %s refused: %v", out, err)
		}
		if again != l {
			t.Fatalf("re-marshalled lease decodes differently:\n got %+v\nwant %+v", again, l)
		}
	})
}

// FuzzParseManifest feeds arbitrary bytes to the manifest decoder. It must
// never panic, and a manifest it accepts, marshalled back to JSON, must
// decode to the same manifest. Seeded from a published manifest, the
// future-version manifest the round-trip test refuses, and truncations.
func FuzzParseManifest(f *testing.F) {
	var runs atomic.Int64
	dir := f.TempDir()
	if _, err := Publish(dir, []string{"t1", "t2"}, testTasks(&runs, 0)); err != nil {
		f.Fatal(err)
	}
	published, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		published,
		[]byte(strings.Replace(string(published), `"version": 1`, `"version": 99`, 1)),
		published[:len(published)/2],
		[]byte(`{"version":1,"experiments":null,"points":[]}`),
		[]byte(`{"version":1,"points":[{"seq":-3,"task":"","key":"k","hash":"ÿ"}]}`),
		[]byte("null"),
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted manifest %+v does not marshal: %v", m, err)
		}
		again, err := parseManifest(out)
		if err != nil {
			t.Fatalf("re-marshalled manifest %s refused: %v", out, err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("re-marshalled manifest decodes differently:\n got %+v\nwant %+v", again, m)
		}
	})
}
