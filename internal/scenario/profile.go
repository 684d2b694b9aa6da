// Package scenario is the internet-scale workload engine: declarative,
// deterministic scenario profiles that drive the simulators at millions
// of simulated subscribers.
//
// A profile describes one virtual day of demand against a subscriber
// population — diurnal rate curves, flash crowds concentrated on a hot
// clip, scripted maintenance (node failures, drains, joins, disk
// additions) — plus a TimeScale factor that compresses the day into
// minutes of simulated round-time. Compiling a profile yields a
// streaming, seeded arrival source (Zipf clip popularity, lean-back vs
// VCR session behavior) and the failure/view traces for the engines, so
// "prime-time flash crowd during a rebuild" is one named scenario.
//
// Everything is seeded and deterministic: the same profile and seed
// reproduce the identical arrival sequence and timeline, which is what
// lets scenario timelines serve as regression baselines.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Phase kinds and maintenance actions accepted in profiles.
const (
	KindConstant    = "constant"
	KindDiurnal     = "diurnal"
	KindFlashCrowd  = "flashcrowd"
	KindMaintenance = "maintenance"

	ActionFail    = "fail"    // node down for the rest of the run
	ActionRestart = "restart" // node fails and rejoins empty next round
	ActionDrain   = "drain"   // graceful leave: no new streams, migrate, retire
	ActionJoin    = "join"    // a new node joins and absorbs admissions
	ActionAddDisk = "adddisk" // node grows by one disk after a re-layout delay
)

// Profile is the declarative form of a scenario, parsed from JSON. All
// times are in virtual hours on the profile's simulated wall clock;
// TimeScale maps them onto engine round-time.
type Profile struct {
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// DayHours is the virtual-day length (default 24).
	DayHours float64 `json:"day_hours,omitempty"`
	// TimeScale compresses the virtual day: one virtual hour occupies
	// 3600/TimeScale simulated seconds. 1 ≤ TimeScale ≤ 86400; at 240 a
	// 24-hour day runs in six simulated minutes.
	TimeScale float64 `json:"time_scale,omitempty"`
	// Subscribers is the population size. Each subscriber starts
	// SessionsPerDay sessions per virtual day on average, so the base
	// arrival rate is Subscribers·SessionsPerDay/day, shaped by the rate
	// phases.
	Subscribers int64 `json:"subscribers"`
	// SessionsPerDay is the per-subscriber mean session count (default 2).
	SessionsPerDay float64 `json:"sessions_per_day,omitempty"`
	// CatalogSize is the clip catalog size requests select from
	// (default 1000, the paper's library).
	CatalogSize int `json:"catalog,omitempty"`
	// Zipf is the popularity skew exponent: clip ranks follow Zipf(s)
	// with clip 0 the most popular. 0 selects uniform choice.
	Zipf float64 `json:"zipf,omitempty"`
	// PatienceMin is how many virtual minutes a pending request waits
	// before abandoning (0: waits forever).
	PatienceMin float64 `json:"patience_min,omitempty"`
	// BucketMin is the timeline bucket width in virtual minutes
	// (default 15 — 96 buckets per 24-hour day).
	BucketMin float64 `json:"bucket_min,omitempty"`
	// Mix describes session behavior.
	Mix SessionMix `json:"mix,omitempty"`
	// Phases compose the day: rate phases (constant, diurnal) tile the
	// base curve, flash crowds multiply on top of it, and maintenance
	// phases script reconfiguration events.
	Phases []Phase `json:"phases,omitempty"`
}

// SessionMix splits the population into lean-back viewers, who play a
// clip to the end, and VCR-heavy viewers, who stop early or pause and
// resume. Probabilities are per session.
type SessionMix struct {
	// VCRShare is the fraction of sessions with VCR behavior; the rest
	// lean back (default 0: everyone plays to the end).
	VCRShare float64 `json:"vcr_share,omitempty"`
	// Pause is the probability (within a VCR session) of a pause/resume:
	// the viewer watches a prefix, leaves, and returns for the rest
	// after an exponential gap.
	Pause float64 `json:"pause,omitempty"`
	// EarlyStop is the probability (within a VCR session) of abandoning
	// the clip partway with no resume. Pause + EarlyStop ≤ 1; the
	// remainder watch through.
	EarlyStop float64 `json:"early_stop,omitempty"`
	// ResumeMin is the mean pause length in virtual minutes (default 15;
	// must be positive when Pause > 0).
	ResumeMin float64 `json:"resume_min,omitempty"`
}

// Phase is one entry of a profile's phase list; which fields apply
// depends on Kind.
type Phase struct {
	// Kind is constant, diurnal, flashcrowd or maintenance.
	Kind string `json:"kind"`
	// StartHour and EndHour bound rate phases: [StartHour, EndHour) in
	// virtual hours. Unused by maintenance.
	StartHour float64 `json:"start_hour,omitempty"`
	EndHour   float64 `json:"end_hour,omitempty"`
	// Level is a constant phase's rate multiplier (≥ 0; 1 = the base
	// rate; defaults to 1 when omitted).
	Level *float64 `json:"level,omitempty"`
	// PeakHour and MinFrac shape a diurnal phase: a sinusoid over the
	// day peaking at PeakHour, dipping to MinFrac·base at the antipode.
	PeakHour float64 `json:"peak_hour,omitempty"`
	MinFrac  float64 `json:"min_frac,omitempty"`
	// Multiplier and Clip shape a flash crowd: the current base rate is
	// multiplied by Multiplier (≥ 1) and the excess concentrates on
	// Clip — the "new release at 8pm" everyone wants.
	Multiplier float64 `json:"multiplier,omitempty"`
	Clip       int     `json:"clip,omitempty"`
	// Action, Node and Hour script a maintenance phase. Join ignores
	// Node (the new node takes the next id).
	Action string  `json:"action,omitempty"`
	Node   int     `json:"node,omitempty"`
	Hour   float64 `json:"hour,omitempty"`
}

// Parse decodes and validates a JSON profile. Unknown fields are
// rejected so typos fail loudly instead of silently deforming the load.
func Parse(data []byte) (Profile, error) {
	var p Profile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Profile{}, fmt.Errorf("scenario: parse: %w", err)
	}
	// Trailing garbage after the object is a malformed profile too.
	if dec.More() {
		return Profile{}, fmt.Errorf("scenario: parse: trailing data after profile object")
	}
	if err := p.Validate(); err != nil {
		return Profile{}, err
	}
	return p, nil
}

// withDefaults fills the documented defaults without mutating p.
func (p Profile) withDefaults() Profile {
	if p.DayHours == 0 {
		p.DayHours = 24
	}
	if p.TimeScale == 0 {
		p.TimeScale = 1
	}
	if p.SessionsPerDay == 0 {
		p.SessionsPerDay = 2
	}
	if p.CatalogSize == 0 {
		p.CatalogSize = 1000
	}
	if p.BucketMin == 0 {
		p.BucketMin = 15
	}
	if p.Mix.ResumeMin == 0 {
		p.Mix.ResumeMin = 15
	}
	return p
}

// Validate checks the profile against the grammar. It validates the
// defaulted form, so a zero field that has a default is never an error.
func (p Profile) Validate() error {
	p = p.withDefaults()
	if p.DayHours <= 0 || p.DayHours > 168 {
		return fmt.Errorf("scenario: day_hours %g outside (0, 168]", p.DayHours)
	}
	if p.TimeScale < 1 || p.TimeScale > 86400 {
		return fmt.Errorf("scenario: time_scale %g outside [1, 86400]", p.TimeScale)
	}
	if p.Subscribers < 1 {
		return fmt.Errorf("scenario: need at least one subscriber, got %d", p.Subscribers)
	}
	if p.SessionsPerDay < 0 {
		return fmt.Errorf("scenario: negative sessions_per_day %g", p.SessionsPerDay)
	}
	if p.CatalogSize < 1 {
		return fmt.Errorf("scenario: catalog size %d below 1", p.CatalogSize)
	}
	if p.Zipf < 0 {
		return fmt.Errorf("scenario: negative zipf exponent %g", p.Zipf)
	}
	if p.PatienceMin < 0 {
		return fmt.Errorf("scenario: negative patience_min %g", p.PatienceMin)
	}
	if p.BucketMin <= 0 {
		return fmt.Errorf("scenario: bucket_min %g must be positive", p.BucketMin)
	}
	m := p.Mix
	if m.VCRShare < 0 || m.VCRShare > 1 {
		return fmt.Errorf("scenario: mix vcr_share %g outside [0, 1]", m.VCRShare)
	}
	if m.Pause < 0 || m.EarlyStop < 0 || m.Pause+m.EarlyStop > 1 {
		return fmt.Errorf("scenario: mix pause %g + early_stop %g outside [0, 1]", m.Pause, m.EarlyStop)
	}
	if m.ResumeMin <= 0 && m.Pause > 0 {
		return fmt.Errorf("scenario: mix resume_min %g must be positive with pause > 0", m.ResumeMin)
	}

	var base, flash []Phase
	for i, ph := range p.Phases {
		switch ph.Kind {
		case KindConstant:
			if ph.Level != nil && *ph.Level < 0 {
				return fmt.Errorf("scenario: phase %d: negative rate level %g", i, *ph.Level)
			}
			if err := p.checkWindow(i, ph); err != nil {
				return err
			}
			base = append(base, ph)
		case KindDiurnal:
			if ph.MinFrac < 0 || ph.MinFrac > 1 {
				return fmt.Errorf("scenario: phase %d: min_frac %g outside [0, 1]", i, ph.MinFrac)
			}
			if ph.PeakHour < 0 || ph.PeakHour >= p.DayHours {
				return fmt.Errorf("scenario: phase %d: peak_hour %g outside [0, %g)", i, ph.PeakHour, p.DayHours)
			}
			if err := p.checkWindow(i, ph); err != nil {
				return err
			}
			base = append(base, ph)
		case KindFlashCrowd:
			if ph.Multiplier < 1 {
				return fmt.Errorf("scenario: phase %d: flash multiplier %g below 1", i, ph.Multiplier)
			}
			if ph.Clip < 0 || ph.Clip >= p.CatalogSize {
				return fmt.Errorf("scenario: phase %d: hot clip %d outside catalog [0, %d)", i, ph.Clip, p.CatalogSize)
			}
			if err := p.checkWindow(i, ph); err != nil {
				return err
			}
			flash = append(flash, ph)
		case KindMaintenance:
			switch ph.Action {
			case ActionFail, ActionRestart, ActionDrain, ActionJoin, ActionAddDisk:
			default:
				return fmt.Errorf("scenario: phase %d: unknown maintenance action %q", i, ph.Action)
			}
			if ph.Node < 0 {
				return fmt.Errorf("scenario: phase %d: negative node %d", i, ph.Node)
			}
			if ph.Hour < 0 || ph.Hour > p.DayHours {
				return fmt.Errorf("scenario: phase %d: hour %g outside [0, %g]", i, ph.Hour, p.DayHours)
			}
		default:
			return fmt.Errorf("scenario: phase %d: unknown kind %q", i, ph.Kind)
		}
	}
	if err := checkOverlap("rate", base); err != nil {
		return err
	}
	return checkOverlap("flashcrowd", flash)
}

func (p Profile) checkWindow(i int, ph Phase) error {
	if ph.StartHour < 0 || ph.EndHour > p.DayHours || ph.StartHour >= ph.EndHour {
		return fmt.Errorf("scenario: phase %d: bad window [%g, %g) in a %g-hour day",
			i, ph.StartHour, ph.EndHour, p.DayHours)
	}
	return nil
}

// checkOverlap rejects overlapping windows within one phase class: base
// phases tile the curve (gaps mean zero offered load), flash crowds may
// not stack on each other.
func checkOverlap(class string, phases []Phase) error {
	for i := 0; i < len(phases); i++ {
		for j := i + 1; j < len(phases); j++ {
			a, b := phases[i], phases[j]
			if a.StartHour < b.EndHour && b.StartHour < a.EndHour {
				return fmt.Errorf("scenario: overlapping %s phases [%g, %g) and [%g, %g)",
					class, a.StartHour, a.EndHour, b.StartHour, b.EndHour)
			}
		}
	}
	return nil
}
