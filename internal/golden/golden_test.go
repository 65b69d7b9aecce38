package golden

import (
	"os"
	"path/filepath"
	"testing"
)

func TestLookup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.sha256")
	data := "# comment  table1\n\naaaa  table1\nbbbb  fig4\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"table1": "aaaa", "fig4": "bbbb", "fig5": "", "comment": ""} {
		got, err := lookup(path, name)
		if err != nil || got != want {
			t.Errorf("lookup(%q) = %q, %v; want %q", name, got, err, want)
		}
	}
	if _, err := lookup(filepath.Join(t.TempDir(), "missing"), "table1"); err == nil {
		t.Error("missing digest file accepted")
	}
}
