package experiments

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"ftcms/internal/units"
)

// find returns cmd's registry entry called name.
func find(cmd, name string) (Experiment, bool) {
	for _, e := range Registry {
		if e.Cmd == cmd && e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// TestRegistrySelfCheck holds the table to its own rules: names and ids
// are unique, every entry belongs to a command and has a doc line and a
// renderer, and every `cmsim -exp …`/`cmopt -exp …` the documentation
// quotes names an entry of that command.
func TestRegistrySelfCheck(t *testing.T) {
	names, ids := map[string]bool{}, map[string]bool{}
	for _, e := range Registry {
		if e.Name == "" || e.Name == "list" || names[e.Name] {
			t.Errorf("entry name %q is empty, reserved or repeated", e.Name)
		}
		if e.ID == "" || ids[e.ID] {
			t.Errorf("%s: id %q is empty or repeated", e.Name, e.ID)
		}
		names[e.Name], ids[e.ID] = true, true
		if e.Cmd != "cmsim" && e.Cmd != "cmopt" {
			t.Errorf("%s: command %q", e.Name, e.Cmd)
		}
		if e.Doc == "" {
			t.Errorf("%s: no doc line", e.Name)
		}
		if e.Render == nil {
			t.Errorf("%s: no renderer", e.Name)
		}
	}
	quoted := regexp.MustCompile(`(cmsim|cmopt) -exp ([a-z0-9]+)`)
	for _, doc := range []string{"../../EXPERIMENTS.md", "../../README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		quotes := quoted.FindAllStringSubmatch(string(text), -1)
		if len(quotes) == 0 {
			t.Errorf("%s quotes no -exp invocation", doc)
		}
		for _, m := range quotes {
			if _, ok := find(m[1], m[2]); !ok && m[2] != "list" {
				t.Errorf("%s quotes `%s`, which is not in the registry", doc, m[0])
			}
		}
	}
}

// TestRunDispatch covers what the dispatcher decides itself: the listing,
// the unknown-name and no-CSV errors, and the panel rule.
func TestRunDispatch(t *testing.T) {
	list := render(t, "cmopt", "list", Params{}, false)
	for _, e := range Registry {
		if listed := strings.Contains(list, e.Name+" ") && strings.Contains(list, e.ID+" ") && strings.Contains(list, e.Doc+"\n"); listed != (e.Cmd == "cmopt") {
			t.Errorf("cmopt -exp list and %s's %s:\n%s", e.Cmd, e.Name, list)
		}
	}
	if err := Run(io.Discard, "cmopt", "figure6", Params{}, false); err == nil || !strings.Contains(err.Error(), strings.TrimSpace(list)) {
		t.Errorf("unknown name: error %v does not carry the list", err)
	}
	for _, name := range []string{"figure1", "optimal"} {
		var buf bytes.Buffer
		if err := Run(&buf, "cmopt", name, Params{D: 32}, true); err == nil || buf.Len() > 0 {
			t.Errorf("%s: -csv on an entry that is not a table gave error %v and %d bytes", name, err, buf.Len())
		}
	}

	// A two-panel entry runs both paper buffers unless one is given; a
	// text panel ends with a blank line, CSV panels are bare.
	both := render(t, "cmopt", "figure5", Params{D: 32}, false)
	if strings.Count(both, "Figure 5") != 2 || !strings.Contains(both, "B=2 GB") || !strings.HasSuffix(both, "\n\n") {
		t.Errorf("default figure5 is not two panels:\n%s", both)
	}
	one := render(t, "cmopt", "figure5", Params{Buffer: 512 * units.MB, D: 32}, false)
	if strings.Count(one, "Figure 5") != 1 || !strings.Contains(one, "B=512 MB") {
		t.Errorf("-buffer not honoured:\n%s", one)
	}
	if csv := render(t, "cmopt", "figure5", Params{D: 32}, true); strings.Contains(csv, "\n\n") || strings.Count(csv, "scheme,p,clips") != 2 {
		t.Errorf("CSV panels:\n%s", csv)
	}
	// A one-panel entry defaults to the 256 MB configuration.
	if out := render(t, "cmsim", "cluster", Params{Seed: 1}, false); !strings.Contains(out, "B=256 MB") || strings.HasSuffix(out, "\n\n") {
		t.Errorf("one-panel default:\n%s", out)
	}
}

// TestEngineTable holds EXPERIMENTS.md's engine table to the registry
// both ways: every entry has a row that starts with its id and names it,
// and a row that names an -exp entry (rather than a Test) names a live
// one under its id, so retiring an entry cannot leave its row behind.
func TestEngineTable(t *testing.T) {
	text, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(text), "\n## Engines\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no ## Engines section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	ids := map[string]string{} // entry name → id
	for _, e := range Registry {
		ids[e.Name] = e.ID
	}
	rows := map[string]string{} // id → the row's first code span
	for _, line := range strings.Split(section, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 3 && strings.Count(cells[2], "`") > 1 {
			id, name := strings.TrimSpace(cells[1]), strings.Split(cells[2], "`")[1]
			rows[id] = name
			if !strings.HasPrefix(name, "Test") && ids[name] != id {
				t.Errorf("engine-table row %s names %q, which is no registry entry with that id", id, name)
			}
		}
	}
	for _, e := range Registry {
		if rows[e.ID] != e.Name {
			t.Errorf("%s (%s): no engine-table row starting with its id and `%s`", e.ID, e.Name, e.Name)
		}
	}
}
