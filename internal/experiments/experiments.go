// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 6 and Appendix A). Each runner returns a Table that
// cmd/svbench prints and experiments_test.go asserts shape properties on.
//
// Sizes default to laptop-scale stand-ins of the paper's corpora; pass a
// larger Scale to approach the published sizes. The stand-ins are
// calibrated on the only dataset properties the algorithms observe —
// distances, labels and relative contrast (internal/dataset/synthetic.go) —
// so the shapes (who wins, by what factor, where the crossovers are)
// transfer even at reduced scale.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"knnshapley/internal/core"
	"knnshapley/internal/knn"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes document scale substitutions and caveats.
	Notes []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Cell lookup helpers used by tests.

// Col returns the index of a header column, or -1.
func (t *Table) Col(name string) int {
	for i, h := range t.Header {
		if h == name {
			return i
		}
	}
	return -1
}

func f(format string, args ...any) string { return fmt.Sprintf(format, args...) }

func ms(d time.Duration) string { return f("%.2fms", float64(d.Microseconds())/1000) }

func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// runKernel averages kern over prebuilt test points on the engine with the
// given worker count (0 = all cores).
func runKernel(tps []*knn.TestPoint, workers int, kern core.Kernel[*knn.TestPoint]) ([]float64, error) {
	eng := core.NewEngine[*knn.TestPoint](core.EngineConfig{Workers: workers})
	return eng.Run(context.Background(), core.NewSliceSource(tps), kern)
}
