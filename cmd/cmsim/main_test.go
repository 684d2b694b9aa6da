package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ftcms/internal/experiments"
)

// bin is the command, built once by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "cmsim")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "cmsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		panic(fmt.Sprintf("go build: %v\n%s", err, out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// golden runs the command and compares its standard output with a file
// under testdata.
func golden(t *testing.T, file string, args ...string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("cmsim %s: %v", strings.Join(args, " "), err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("cmsim %s differs from testdata/%s:\n%s", strings.Join(args, " "), file, got)
	}
}

// TestExperimentSurfaces runs every cmsim registry entry at the command's
// defaults, as text and as CSV, against testdata/<name>.txt and .csv. The
// files of surfaces older than the registry were printed by the selector
// flags it replaced (-grid, -continuity, …) and must never move; after
// adding a column, regenerate that entry's pair with
// `go run ./cmd/cmsim -exp <name> [-csv]`.
func TestExperimentSurfaces(t *testing.T) {
	for _, e := range experiments.Registry {
		if e.Cmd != "cmsim" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			golden(t, e.Name+".txt", "-exp", e.Name)
			if _, err := os.Stat(filepath.Join("testdata", e.Name+".csv")); err == nil {
				golden(t, e.Name+".csv", "-exp", e.Name, "-csv")
			} else if out, err := exec.Command(bin, "-exp", e.Name, "-csv").Output(); err == nil || len(out) > 0 {
				t.Errorf("no testdata/%s.csv, yet -csv printed %q (error %v)", e.Name, out, err)
			}
		})
	}
}

// TestOtherSurfacesUnchanged pins a single run and a scenario day, whose
// flags -exp does not touch, to bytes printed before -exp existed, and the
// same scenario surface on a single array (-nodes 1), text and timeline.
func TestOtherSurfacesUnchanged(t *testing.T) {
	golden(t, "run_rebuild.txt", "-duration", "120", "-fail", "5", "-failat", "50", "-rebuild")
	golden(t, "scenario_flagship.txt", "-scenario", "primetime-flashcrowd-rebuild", "-csv")
	golden(t, "scenario_single.txt", "-scenario", "primetime-flashcrowd", "-nodes", "1")
	golden(t, "scenario_single.csv", "-scenario", "primetime-flashcrowd", "-nodes", "1", "-csv")
}

// TestFlagErrors: -exp refuses what it would otherwise have to guess at
// — an unknown name, flags that belong to a single run or a scenario day,
// and -exp flags the entry does not read — with a non-zero exit and
// nothing on standard output. So do a
// scenario day and a single run given each other's flags, a single run of
// a scheme the simulator does not model, naming the ones it does, and a
// -fail outside the array.
func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-exp nope", "autopilotsweep  E21"},
		{"-exp figure5", "unknown experiment"},
		{"-exp figure6 -scenario primetime", "-scenario does not apply to -exp"},
		{"-exp continuity -fail 3", "-fail does not apply to -exp"},
		{"-exp figure6 -rate 5", "-rate does not apply to -exp"},
		{"-exp figure6 -p 8", "-p does not apply to -exp"},
		{"-exp doublefault -buffer 2GB", "-buffer does not apply to -exp doublefault"},
		{"-exp integrity -subscribers 5 -timescale 3", "-subscribers does not apply to -exp integrity"},
		{"-exp integrity -buffer 2GB", "-buffer does not apply to -exp integrity"},
		{"-scenario steady -subscribers 2000 -timescale 2880 -p 8", "-p does not apply to -scenario"},
		{"-scenario steady -rate 99", "-rate does not apply to -scenario"},
		{"-scenario steady -fail 3", "-fail does not apply to -scenario"},
		{"-scenario steady -scheme streaming-raid", "-scheme does not apply to -scenario"},
		{"-scenario steady -bypass -1", "-bypass does not apply to -scenario"},
		{"-scenario steady -buffer 2GB", "-buffer does not apply to -scenario"},
		{"-duration 5 -autopilot", "-autopilot does not apply to a single run"},
		{"-duration 5 -nodes 3", "-nodes does not apply to a single run"},
		{"-duration 5 -subscribers 7", "-subscribers does not apply to a single run"},
		{"-duration 5 -csv", "-csv does not apply to a single run"},
		{"-scheme declustered-pq", "not modelled (want one of declustered, prefetch-flat, prefetch-parity-disk, streaming-raid, non-clustered, declustered-dynamic)"},
		{"-fail 40 -failat 5 -duration 20 -rebuild", "sim: trace disk 40 out of range [0, 32)"},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, strings.Fields(tc.args)...)
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err == nil || len(out) > 0 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("cmsim %s: err %v, stdout %q, stderr %q; want failure mentioning %q",
				tc.args, err, out, stderr.String(), tc.want)
		}
	}
}

// TestFigure6HonoursBuffer: -buffer selects one panel, as it does for
// cmopt's Figure 5; the default stays both.
func TestFigure6HonoursBuffer(t *testing.T) {
	both, err := os.ReadFile("testdata/figure6.txt")
	if err != nil {
		t.Fatal(err)
	}
	second := string(both[bytes.Index(both, []byte("\n\n"))+2:])
	got, err := exec.Command(bin, "-exp", "figure6", "-buffer", "2GB").Output()
	if err != nil || string(got) != second {
		t.Errorf("-exp figure6 -buffer 2GB: err %v, got\n%swant\n%s", err, got, second)
	}
}
