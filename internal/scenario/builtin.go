package scenario

import (
	"fmt"
	"sort"
)

// builtins are the named scenarios shipped with cmsim. Each is an
// ordinary profile document — `cmsim -scenario <name>` and `cmsim
// -scenario file.json` go through the same parser.
var builtins = map[string]string{
	// steady: a flat sanity-check day. One million subscribers at uniform
	// clip choice, no maintenance, compressed 480×: a 24-hour day in
	// three simulated minutes.
	"steady": `{
		"name": "steady",
		"time_scale": 480,
		"subscribers": 1000000,
		"zipf": 0,
		"patience_min": 8
	}`,

	// primetime: the canonical diurnal day — demand bottoms out at 4:30am
	// at 10% of base and peaks at 8:30pm, Zipf-skewed catalog, a third of
	// the audience channel-surfing with pauses and early stops.
	"primetime": `{
		"name": "primetime",
		"time_scale": 240,
		"subscribers": 1000000,
		"zipf": 1.1,
		"patience_min": 8,
		"mix": {"vcr_share": 0.3, "pause": 0.25, "early_stop": 0.35, "resume_min": 20},
		"phases": [
			{"kind": "diurnal", "start_hour": 0, "end_hour": 24, "peak_hour": 20.5, "min_frac": 0.1}
		]
	}`,

	// primetime-flashcrowd: primetime plus a new-release flash crowd —
	// from 8pm to 9pm the offered rate quadruples and the excess piles
	// onto clip 0.
	"primetime-flashcrowd": `{
		"name": "primetime-flashcrowd",
		"time_scale": 240,
		"subscribers": 1000000,
		"zipf": 1.1,
		"patience_min": 8,
		"mix": {"vcr_share": 0.3, "pause": 0.25, "early_stop": 0.35, "resume_min": 20},
		"phases": [
			{"kind": "diurnal", "start_hour": 0, "end_hour": 24, "peak_hour": 20.5, "min_frac": 0.1},
			{"kind": "flashcrowd", "start_hour": 20, "end_hour": 21, "multiplier": 4, "clip": 0}
		]
	}`,

	// primetime-flashcrowd-rebuild: the flagship stress day. A node is
	// lost fifteen minutes before the 8pm flash crowd, a replacement
	// joins at the top of the hour, and off-peak a node drains for
	// maintenance at 3am and another grows a disk at 5am.
	"primetime-flashcrowd-rebuild": `{
		"name": "primetime-flashcrowd-rebuild",
		"time_scale": 240,
		"subscribers": 1000000,
		"zipf": 1.1,
		"patience_min": 8,
		"mix": {"vcr_share": 0.3, "pause": 0.25, "early_stop": 0.35, "resume_min": 20},
		"phases": [
			{"kind": "diurnal", "start_hour": 0, "end_hour": 24, "peak_hour": 20.5, "min_frac": 0.1},
			{"kind": "flashcrowd", "start_hour": 20, "end_hour": 21, "multiplier": 4, "clip": 0},
			{"kind": "maintenance", "action": "drain", "node": 2, "hour": 3},
			{"kind": "maintenance", "action": "adddisk", "node": 0, "hour": 5},
			{"kind": "maintenance", "action": "fail", "node": 1, "hour": 19.75},
			{"kind": "maintenance", "action": "join", "hour": 20}
		]
	}`,

	// primetime-autopilot: the closed-loop proving ground — the same
	// diurnal day and 4× flash crowd, plus a node loss at 7:45pm with
	// NO scripted operator response. Run it with the autopilot enabled
	// (`cmsim -scenario primetime-autopilot -autopilot`): the controller
	// must replace the lost node, scale out into the crowd, shed
	// lean-back arrivals if the backlog still grows, and scale back in
	// off-peak. Open-loop, the day simply runs degraded.
	"primetime-autopilot": `{
		"name": "primetime-autopilot",
		"time_scale": 240,
		"subscribers": 1000000,
		"zipf": 1.1,
		"patience_min": 8,
		"mix": {"vcr_share": 0.3, "pause": 0.25, "early_stop": 0.35, "resume_min": 20},
		"phases": [
			{"kind": "diurnal", "start_hour": 0, "end_hour": 24, "peak_hour": 20.5, "min_frac": 0.1},
			{"kind": "flashcrowd", "start_hour": 20, "end_hour": 21, "multiplier": 4, "clip": 0},
			{"kind": "maintenance", "action": "fail", "node": 1, "hour": 19.75}
		]
	}`,
}

// BuiltinProfile returns one of the named scenarios as a profile, so
// callers can override fields (population, compression) before
// compiling.
func BuiltinProfile(name string) (Profile, error) {
	src, ok := builtins[name]
	if !ok {
		return Profile{}, fmt.Errorf("scenario: unknown builtin %q (have %v)", name, BuiltinNames())
	}
	p, err := Parse([]byte(src))
	if err != nil {
		return Profile{}, fmt.Errorf("scenario: builtin %q: %w", name, err)
	}
	return p, nil
}

// BuiltinNames lists the named scenarios in sorted order.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
