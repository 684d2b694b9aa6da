package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ftcms/internal/experiments"
)

// TestExperimentSurfaces runs every cmopt registry entry at the command's
// defaults, as text and as CSV, against testdata/<name>.txt and .csv, then
// the errors the command owes instead of a guess. The files of surfaces
// older than the registry were printed by the selector flags it replaced
// (-params, -rebuild, …) and must never move; after adding a column,
// regenerate that entry's pair with `go run ./cmd/cmopt -exp <name> [-csv]`.
func TestExperimentSurfaces(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "cmopt")
	args := []string{"build", "-o", bin, "."}
	if os.Getenv("GOCOVERDIR") != "" {
		// scripts/untested.sh: the runs below count toward its report.
		args = []string{"build", "-o", bin, "-cover", "-coverpkg=ftcms/...", "."}
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	golden := func(t *testing.T, file string, args ...string) {
		t.Helper()
		want, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("cmopt %s: %v", strings.Join(args, " "), err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("cmopt %s differs from testdata/%s:\n%s", strings.Join(args, " "), file, got)
		}
	}
	for _, e := range experiments.Registry {
		if e.Cmd != "cmopt" {
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
	t.Run("default is figure5", func(t *testing.T) {
		golden(t, "figure5.txt")
		golden(t, "figure5.csv", "-csv")
	})
	for _, tc := range []struct{ args, want string }{
		{"-exp nope", "mttdl           E18b"},
		{"-exp figure6", "unknown experiment"},
		{"-exp figure1 -csv", "no -csv form"},
		{"-exp optimal -csv", "no -csv form"},
		{"-d 64", "figure 5 is defined for d=32"},
		{"-exp mttdl -d 4 -p 8", "bad geometry"},
		{"-exp staggered -d 16 -p 8", "-d does not apply to -exp staggered"},
		{"-exp rebuild -p 8", "-p does not apply to -exp rebuild"},
		{"-exp conservatism -d 7", "-d does not apply to -exp conservatism"},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, strings.Fields(tc.args)...)
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err == nil || len(out) > 0 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("cmopt %s: err %v, stdout %q, stderr %q; want failure mentioning %q",
				tc.args, err, out, stderr.String(), tc.want)
		}
	}
}
