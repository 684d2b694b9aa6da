// Package trace renders result series: one Column list drives both the
// CSV (for re-plotting outside Go) and the aligned text table of whatever
// declares it, so the two cannot drift. The package knows no experiment;
// internal/experiments declares a list per experiment, and the scenario
// timeline's is in timeline.go.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"ftcms/internal/units"
)

// Column is one series of a result table over points of type T.
type Column[T any] struct {
	// CSV is the header in the CSV; "" keeps the column out of it.
	CSV string
	// Title is the heading in the text table; "" keeps the column out of it.
	Title string
	// Value returns the point's cell, rendered with fmt.Sprint (so floats
	// print as %g and Stringers by name; a column needing a fixed precision
	// returns a pre-formatted string).
	Value func(T) any
	// Text, when set, replaces Value in the text table.
	Text func(T) any
}

// Col is a column whose CSV and text cells are the same value.
func Col[T any](csv, title string, value func(T) any) Column[T] {
	return Column[T]{CSV: csv, Title: title, Value: value}
}

// Seconds is a duration column: seconds with microsecond precision in
// the CSV, the duration's own unit in the text table.
func Seconds[T any](csv, title string, d func(T) units.Duration) Column[T] {
	return Column[T]{CSV: csv, Title: title,
		Value: func(pt T) any { return fmt.Sprintf("%.6f", d(pt).Seconds()) },
		Text:  func(pt T) any { return d(pt) }}
}

// cells renders the header row, then one row per point, of the columns
// named in the chosen output: by CSV, or by Title when text is set.
func cells[T any](cols []Column[T], points []T, text bool) [][]string {
	rows := make([][]string, 1+len(points))
	for _, c := range cols {
		name, value := c.CSV, c.Value
		if text {
			name = c.Title
			if c.Text != nil {
				value = c.Text
			}
		}
		if name == "" {
			continue
		}
		rows[0] = append(rows[0], name)
		for i, pt := range points {
			rows[i+1] = append(rows[i+1], fmt.Sprint(value(pt)))
		}
	}
	return rows
}

// WriteCSV emits the header row of the columns that have a CSV name, then
// one record per point.
func WriteCSV[T any](w io.Writer, cols []Column[T], points []T) error {
	return csv.NewWriter(w).WriteAll(cells(cols, points, false))
}

// WriteText emits the caption, then an aligned table with one row per
// point and one column per titled Column.
func WriteText[T any](w io.Writer, caption string, cols []Column[T], points []T) error {
	return writeRows(w, caption, cells(cols, points, true))
}

// WritePivot emits the caption, then the points as a grid: the first
// column's values label the rows, the second's head the columns (as
// title=value) and the third's fill the cells. Points must arrive
// row-major, as the scheme × p sweeps produce them.
func WritePivot[T any](w io.Writer, caption string, cols []Column[T], points []T) error {
	flat := cells(cols[:3], points, true)
	grid := [][]string{{flat[0][0]}}
	for i, r := range flat[1:] {
		if i == 0 || r[0] != flat[i][0] { // flat[i] is the previous point's row
			grid = append(grid, []string{r[0]})
		}
		if len(grid) == 2 {
			grid[0] = append(grid[0], flat[0][1]+"="+r[1])
		}
		grid[len(grid)-1] = append(grid[len(grid)-1], r[2])
	}
	return writeRows(w, caption, grid)
}

// writeRows emits the caption line, then the rows aligned in columns; a
// failed write surfaces from the Flush.
func writeRows(w io.Writer, caption string, rows [][]string) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, caption)
	for _, row := range rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	return tw.Flush()
}
