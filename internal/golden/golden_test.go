package golden

import (
	"math"
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

func TestRender(t *testing.T) {
	type node struct {
		X    float64
		next *node
	}
	third := 1.0 / 3
	cases := []struct {
		v    any
		want string
	}{
		{third, "0.3333333333333333"},
		{math.Nextafter(third, 1), "0.33333333333333337"},
		{[]float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}, "[+Inf -Inf -0]"},
		{map[string]int{"b": 2, "a": 1, "c": 3}, `map["a":1 "b":2 "c":3]`},
		{&third, "&0.3333333333333333"},
		{&node{X: 1, next: &node{X: 2}}, "&golden.node{X:1 next:&golden.node{X:2 next:nil}}"},
		{[]any{nil, 2}, "[nil int(2)]"},
		{[]int(nil), "nil"},
	}
	for _, c := range cases {
		if got := string(Render(c.v)); got != c.want {
			t.Errorf("Render(%#v) = %s, want %s", c.v, got, c.want)
		}
	}
	// Two equal values behind different pointers render the same.
	a, b := 0.1, 0.1
	if string(Render(&a)) != string(Render(&b)) {
		t.Error("Render depends on the pointer address")
	}
	defer func() {
		if recover() == nil {
			t.Error("Render accepted a func")
		}
	}()
	Render(struct{ F func() }{})
}
