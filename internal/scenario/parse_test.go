package scenario

import (
	"strings"
	"testing"
)

// TestParseTable drives the profile grammar through accept and reject
// cases; rejects name the offending construct in the error.
func TestParseTable(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		wantErr string // empty: accept
	}{
		{
			name: "minimal",
			src:  `{"name": "x", "subscribers": 1000}`,
		},
		{
			name: "full-grammar",
			src: `{
				"name": "full", "day_hours": 24, "time_scale": 240,
				"subscribers": 500000, "sessions_per_day": 1.5,
				"catalog": 500, "zipf": 1.1, "patience_min": 5, "bucket_min": 30,
				"mix": {"vcr_share": 0.4, "pause": 0.2, "early_stop": 0.3, "resume_min": 10},
				"phases": [
					{"kind": "constant", "start_hour": 0, "end_hour": 8, "level": 0.2},
					{"kind": "diurnal", "start_hour": 8, "end_hour": 24, "peak_hour": 20, "min_frac": 0.1},
					{"kind": "flashcrowd", "start_hour": 20, "end_hour": 21, "multiplier": 6, "clip": 3},
					{"kind": "maintenance", "action": "fail", "node": 1, "hour": 19.5},
					{"kind": "maintenance", "action": "join", "hour": 20}
				]
			}`,
		},
		{
			name: "half-day-profile",
			src: `{"name": "half", "day_hours": 12, "subscribers": 10,
				"phases": [{"kind": "diurnal", "start_hour": 0, "end_hour": 12, "peak_hour": 11, "min_frac": 0.5}]}`,
		},
		{
			name:    "not-json",
			src:     `{"name": `,
			wantErr: "parse",
		},
		{
			name:    "unknown-field",
			src:     `{"name": "x", "subscribers": 10, "subscriber": 20}`,
			wantErr: "unknown field",
		},
		{
			name:    "trailing-garbage",
			src:     `{"name": "x", "subscribers": 10} {"again": true}`,
			wantErr: "trailing data",
		},
		{
			name:    "no-subscribers",
			src:     `{"name": "x"}`,
			wantErr: "subscriber",
		},
		{
			name:    "bad-time-scale-low",
			src:     `{"name": "x", "subscribers": 10, "time_scale": 0.5}`,
			wantErr: "time_scale",
		},
		{
			name:    "bad-time-scale-high",
			src:     `{"name": "x", "subscribers": 10, "time_scale": 100000}`,
			wantErr: "time_scale",
		},
		{
			name:    "negative-day",
			src:     `{"name": "x", "subscribers": 10, "day_hours": -24}`,
			wantErr: "day_hours",
		},
		{
			name:    "negative-zipf",
			src:     `{"name": "x", "subscribers": 10, "zipf": -1}`,
			wantErr: "zipf",
		},
		{
			name: "negative-rate-level",
			src: `{"name": "x", "subscribers": 10,
				"phases": [{"kind": "constant", "start_hour": 0, "end_hour": 24, "level": -2}]}`,
			wantErr: "negative rate",
		},
		{
			name: "overlapping-base-phases",
			src: `{"name": "x", "subscribers": 10, "phases": [
				{"kind": "constant", "start_hour": 0, "end_hour": 12},
				{"kind": "diurnal", "start_hour": 10, "end_hour": 24, "peak_hour": 20}]}`,
			wantErr: "overlapping rate",
		},
		{
			name: "overlapping-flash-crowds",
			src: `{"name": "x", "subscribers": 10, "phases": [
				{"kind": "flashcrowd", "start_hour": 10, "end_hour": 12, "multiplier": 2},
				{"kind": "flashcrowd", "start_hour": 11, "end_hour": 13, "multiplier": 3}]}`,
			wantErr: "overlapping flashcrowd",
		},
		{
			name: "flash-multiplier-below-one",
			src: `{"name": "x", "subscribers": 10,
				"phases": [{"kind": "flashcrowd", "start_hour": 1, "end_hour": 2, "multiplier": 0.5}]}`,
			wantErr: "multiplier",
		},
		{
			name: "hot-clip-outside-catalog",
			src: `{"name": "x", "subscribers": 10, "catalog": 100,
				"phases": [{"kind": "flashcrowd", "start_hour": 1, "end_hour": 2, "multiplier": 2, "clip": 100}]}`,
			wantErr: "hot clip",
		},
		{
			name: "window-beyond-day",
			src: `{"name": "x", "subscribers": 10, "day_hours": 12,
				"phases": [{"kind": "constant", "start_hour": 0, "end_hour": 24}]}`,
			wantErr: "bad window",
		},
		{
			name: "inverted-window",
			src: `{"name": "x", "subscribers": 10,
				"phases": [{"kind": "constant", "start_hour": 9, "end_hour": 9}]}`,
			wantErr: "bad window",
		},
		{
			name: "peak-hour-outside-day",
			src: `{"name": "x", "subscribers": 10, "day_hours": 12,
				"phases": [{"kind": "diurnal", "start_hour": 0, "end_hour": 12, "peak_hour": 20}]}`,
			wantErr: "peak_hour",
		},
		{
			name: "unknown-phase-kind",
			src: `{"name": "x", "subscribers": 10,
				"phases": [{"kind": "lunar", "start_hour": 0, "end_hour": 24}]}`,
			wantErr: "unknown kind",
		},
		{
			name: "unknown-maintenance-action",
			src: `{"name": "x", "subscribers": 10,
				"phases": [{"kind": "maintenance", "action": "explode", "hour": 3}]}`,
			wantErr: "unknown maintenance action",
		},
		{
			name: "maintenance-hour-outside-day",
			src: `{"name": "x", "subscribers": 10,
				"phases": [{"kind": "maintenance", "action": "fail", "hour": 25}]}`,
			wantErr: "hour",
		},
		{
			name:    "mix-over-one",
			src:     `{"name": "x", "subscribers": 10, "mix": {"vcr_share": 1.5}}`,
			wantErr: "vcr_share",
		},
		{
			name:    "mix-pause-plus-stop-over-one",
			src:     `{"name": "x", "subscribers": 10, "mix": {"vcr_share": 0.5, "pause": 0.6, "early_stop": 0.6}}`,
			wantErr: "pause",
		},
		{
			name:    "negative-patience",
			src:     `{"name": "x", "subscribers": 10, "patience_min": -1}`,
			wantErr: "patience",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Parse([]byte(tc.src))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("rejected valid profile: %v", err)
				}
				// Valid profiles must also compile.
				if _, err := Compile(p); err != nil {
					t.Fatalf("valid profile failed to compile: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted invalid profile %s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestBuiltinsCompile: every shipped scenario parses, validates and
// compiles, and the listing is sorted and complete.
func TestBuiltinsCompile(t *testing.T) {
	names := BuiltinNames()
	if len(names) != len(builtins) {
		t.Fatalf("BuiltinNames lists %d of %d", len(names), len(builtins))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("BuiltinNames not sorted: %v", names)
		}
	}
	for _, name := range names {
		if c := builtin(t, name); c.Profile.Name != name {
			t.Errorf("builtin %q names itself %q", name, c.Profile.Name)
		}
	}
	if _, err := BuiltinProfile("no-such-scenario"); err == nil {
		t.Error("unknown builtin accepted")
	}
}

// builtin compiles the named builtin scenario, as cmsim -scenario does.
func builtin(t *testing.T, name string) *Compiled {
	t.Helper()
	p, err := BuiltinProfile(name)
	if err != nil {
		t.Fatalf("builtin %q: %v", name, err)
	}
	c, err := Compile(p)
	if err != nil {
		t.Fatalf("builtin %q: %v", name, err)
	}
	return c
}

// FuzzScenarioParse: Parse must never panic, and anything it accepts
// must re-validate and re-parse from its defaulted form.
func FuzzScenarioParse(f *testing.F) {
	for _, src := range builtins {
		f.Add([]byte(src))
	}
	f.Add([]byte(`{"name": "x", "subscribers": 10, "phases": [{"kind": "constant", "start_hour": 0, "end_hour": 24}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted profile fails re-validation: %v", err)
		}
		if err := p.withDefaults().Validate(); err != nil {
			t.Fatalf("defaulted profile fails validation: %v", err)
		}
	})
}
