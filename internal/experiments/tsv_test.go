package experiments

import (
	"strings"
	"testing"
)

func TestTSVExporters(t *testing.T) {
	exporters := []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig9", "fig10", "fig12"}
	for _, id := range exporters {
		t.Run(id, func(t *testing.T) {
			exp, ok := reference(t, id).res.(TSVExporter)
			if !ok {
				t.Fatalf("%s does not export TSV", id)
			}
			series := exp.TSV()
			if len(series) == 0 {
				t.Fatal("no series exported")
			}
			for name, content := range series {
				lines := strings.Split(strings.TrimRight(content, "\n"), "\n")
				if len(lines) < 2 {
					t.Errorf("series %q has no data rows", name)
					continue
				}
				cols := strings.Count(lines[0], "\t") + 1
				if cols < 2 {
					t.Errorf("series %q header has %d columns", name, cols)
				}
				for i, line := range lines[1:] {
					if got := strings.Count(line, "\t") + 1; got != cols {
						t.Errorf("series %q row %d has %d columns, want %d", name, i+1, got, cols)
						break
					}
				}
				if strings.Contains(content, "NaN") || strings.Contains(content, "Inf") {
					t.Errorf("series %q contains non-finite values", name)
				}
			}
		})
	}
}
