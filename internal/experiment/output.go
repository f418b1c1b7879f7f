package experiment

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WriteCSV emits the result as one CSV table: the first column is the x
// value, one column per series (empty cell where a series has no point).
func (r *Result) WriteCSV(w io.Writer) error {
	header := []string{r.XLabel}
	for _, s := range r.Series {
		header = append(header, s.Label)
	}
	return csv.NewWriter(w).WriteAll(append([][]string{header}, r.rows(formatFloat, func(y float64) string {
		if math.IsNaN(y) {
			return ""
		}
		return formatFloat(y)
	})...))
}

// rows returns one row per x of xUnion: x formatted by fx, then every
// series' value at x formatted by fy (NaN where the series has no point).
func (r *Result) rows(fx, fy func(float64) string) [][]string {
	var out [][]string
	for _, x := range r.xUnion() {
		row := []string{fx(x)}
		for _, s := range r.Series {
			row = append(row, fy(s.YAt(x)))
		}
		out = append(out, row)
	}
	return out
}

// WriteJSON emits the full result (metadata, series, notes) as indented
// JSON, one document.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// xUnion returns the sorted union of the x values of all series.
func (r *Result) xUnion() []float64 {
	set := map[float64]bool{}
	for _, s := range r.Series {
		for _, x := range s.X {
			set[x] = true
		}
	}
	xs := make([]float64, 0, len(set))
	for x := range set {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	return xs
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// WriteMarkdown emits the result as a Markdown section: a heading, the
// series as a table, and the notes as a bullet list. cmd/propreport strings
// these together into a full reproduction report.
func (r *Result) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "## `%s` — %s\n\n", r.ID, r.Title)
	if len(r.Series) == 0 {
		b.WriteString("(no data)\n")
		_, err := io.WriteString(w, b.String())
		return err
	}
	b.WriteString("| " + r.XLabel + " |")
	for _, s := range r.Series {
		b.WriteString(" " + s.Label + " |")
	}
	b.WriteString("\n|---|" + strings.Repeat("---|", len(r.Series)) + "\n")
	for _, row := range r.rows(formatFloat, func(y float64) string {
		if math.IsNaN(y) {
			return "—"
		}
		return strconv.FormatFloat(y, 'f', 3, 64)
	}) {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	b.WriteString("\n")
	for _, n := range r.Notes {
		b.WriteString("- " + n + "\n")
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Plot renders the result as an ASCII line chart: one glyph per series,
// a y-axis with min/max labels, and a legend. width and height are the
// plot-area dimensions in characters (sane floors apply).
func (r *Result) Plot(w io.Writer, width, height int) {
	width, height = max(width, 20), max(height, 5)
	glyphs := []byte{'*', '+', 'o', 'x', '#', '@', '%', '&', '$', '~'}
	xs := r.xUnion()
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range r.Series {
		for _, y := range s.Y {
			if y < ymin {
				ymin = y
			}
			if y > ymax {
				ymax = y
			}
		}
	}
	if len(xs) == 0 || math.IsInf(ymin, 1) {
		fmt.Fprintln(w, "(no data to plot)")
		return
	}
	xmin, xmax := xs[0], xs[len(xs)-1]
	if ymax == ymin {
		ymax = ymin + 1
	}
	if xmax == xmin {
		xmax = xmin + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range r.Series {
		for i := range s.X {
			row := min(max(int((ymax-s.Y[i])/(ymax-ymin)*float64(height-1)), 0), height-1)
			col := min(max(int((s.X[i]-xmin)/(xmax-xmin)*float64(width-1)), 0), width-1)
			grid[row][col] = glyphs[si%len(glyphs)]
		}
	}

	fmt.Fprintf(w, "%s — %s\n", r.ID, r.Title)
	yTop := fmt.Sprintf("%.3g", ymax)
	yBot := fmt.Sprintf("%.3g", ymin)
	pad := max(len(yTop), len(yBot))
	for i, line := range grid {
		label := ""
		switch i {
		case 0:
			label = yTop
		case height - 1:
			label = yBot
		}
		fmt.Fprintf(w, "%*s |%s\n", pad, label, string(line))
	}
	fmt.Fprintf(w, "%*s +%s\n", pad, "", strings.Repeat("-", width))
	fmt.Fprintf(w, "%*s  %-*.3g%*.3g\n", pad, "", width/2, xmin, width-width/2, xmax)
	fmt.Fprintf(w, "x: %s, y: %s\n", r.XLabel, r.YLabel)
	for si, s := range r.Series {
		fmt.Fprintf(w, "  %c  %s\n", glyphs[si%len(glyphs)], s.Label)
	}
}
