// Command cmopt reproduces the analytical results of the paper: every
// analytic experiment of the registry in internal/experiments (`cmopt
// -exp list` prints names, ids and one-line descriptions; EXPERIMENTS.md
// has the measured tables).
//
// Usage:
//
//	cmopt                     # Figure 5, both panels (-exp figure5)
//	cmopt -exp rebuild -csv   # a registered experiment's columns as CSV
//	cmopt -buffer 512MB       # custom buffer size instead of both paper sizes
//	cmopt -exp optimal -d 64  # custom array width
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ftcms/internal/cliutil"
	"ftcms/internal/experiments"
	"ftcms/internal/units"
)

func main() {
	var list strings.Builder
	experiments.Run(&list, "cmopt", "list", experiments.Params{}, false) // a Builder takes every write
	exp := flag.String("exp", "figure5", "print a registered experiment as a text table (with -csv: as CSV); -exp list prints these:\n"+list.String())
	p := flag.Int("p", 4, "parity group size (with -exp mttdl)")
	csvOut := flag.Bool("csv", false, "emit the table's columns as CSV instead of a text table")
	bufferFlag := flag.String("buffer", "", "buffer size (e.g. 256MB, 2GB); default: both paper sizes")
	d := flag.Int("d", 32, "number of disks (with -exp optimal and -exp mttdl)")
	flag.Parse()

	if _, err := cliutil.ParseGeometry(*d, 0); err != nil {
		fatal(err)
	}
	var buffer units.Bits
	if *bufferFlag != "" {
		var err error
		if buffer, err = cliutil.ParseSize(*bufferFlag); err != nil {
			fatal(err)
		}
	}
	if err := experiments.Run(os.Stdout, "cmopt", *exp, experiments.Params{Buffer: buffer, D: *d, P: *p}, *csvOut); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmopt:", err)
	os.Exit(1)
}
