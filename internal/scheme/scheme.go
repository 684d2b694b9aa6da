// Package scheme is the one table of the server's seven fault-tolerance
// schemes. The paper defines a scheme by a layout, an admission rule, a
// per-clip buffer and an optimiser constraint (§4–§7); a record here
// holds all four — the constraint as the admission grid, the buffer in
// normal and degraded operation and the continuity rule — plus the facts
// the rest of the tree reads: the parity columns, whether parity groups
// stay inside a cluster, how far fetching runs ahead. A consumer reads a
// field where it would otherwise switch on a name. A new scheme is one
// more record.
//
// One dispatch remains outside the table, because each case is a
// different formula rather than a parameter of one: the simulator's §8
// failure models (accountFailure and dueLoad in internal/sim). A
// go/parser test in this package holds the rest of the module to field
// reads.
package scheme

import (
	"fmt"
	"strings"

	"ftcms/internal/admission"
	"ftcms/internal/diskmodel"
	"ftcms/internal/layout"
	"ftcms/internal/units"
)

// Scheme names one fault-tolerance scheme. The zero value is invalid.
type Scheme uint8

// The seven schemes: the paper's five analytic schemes in Figure 5 order,
// then the two that share the declustered scheme's §7 analysis.
const (
	// Declustered is the §4 declustered-parity scheme with static
	// contingency reservation.
	Declustered Scheme = iota + 1
	// PrefetchFlat is the §6.2 pre-fetching scheme with flat parity
	// placement.
	PrefetchFlat
	// PrefetchParityDisk is the §6.1 pre-fetching scheme with dedicated
	// parity disks.
	PrefetchParityDisk
	// StreamingRAID is the [TPBG93] baseline: whole-group retrieval.
	StreamingRAID
	// NonClustered is the [BGM95] baseline: parity disks, no
	// pre-fetching, degraded-mode whole-group reads.
	NonClustered
	// DeclusteredDynamic is the §5 dynamic reservation scheme: the
	// declustered layout organized as r super-clips, with per-clip
	// contingency reservations instead of a static f.
	DeclusteredDynamic
	// DeclusteredPQ is the §4 declustered scheme hardened with RAID-6
	// style P+Q double parity: every group carries an XOR column and a
	// GF(2^8) Reed-Solomon column, so any two overlapping disk failures
	// stay recoverable and up to two online rebuilds run concurrently.
	DeclusteredPQ
)

// record is everything the tree knows about one scheme.
type record struct {
	key, legend string
	// table builds a placement driven by a parity group table; layout
	// builds any other. Exactly one is set.
	table  func(d, p int) (*layout.Declustered, error)
	layout func(d, p int, capacity int64) (layout.Layout, error)
	// grid sizes the admission coordinates: the units a stream start is
	// booked on and the classes per unit. ctrl builds the controller over
	// them, and coords maps a stream's first block to its cell. t is the
	// table layout, nil when the scheme has none.
	grid   func(d, p int) (units, classes int)
	ctrl   func(units, classes, q, f int, t *layout.Declustered) (admission.Controller, error)
	coords func(lay layout.Layout, t *layout.Declustered, start int64) (unit, class int)
	// buffer is the per-clip buffer in blocks at group size p; degraded
	// is the buffer §7 charges each clip of a failed unit, nil when §7
	// analyses no failure of the scheme.
	buffer, degraded func(p int) float64

	parity     int  // parity columns per group
	clustered  bool // parity groups stay inside one p-disk cluster
	prefetch   bool // fetching runs p−1 blocks ahead of delivery
	groupFetch bool // a round fetches a whole group
	dynamic    bool // §5 reservations over super-clips instead of a static f
	addDisk    bool // AddDisk can grow the array
	paper      bool // one of the five schemes §7 solves
}

var records = [...]record{
	Declustered: {key: "declustered", legend: "Declustered parity",
		table: layout.NewDeclustered, grid: rows, ctrl: static, coords: rowCoords,
		buffer: two, degraded: group, parity: 1, addDisk: true, paper: true},
	PrefetchFlat: {key: "prefetch-flat", legend: "Pre-fetching without parity disk",
		layout: flat, grid: flatGrid, ctrl: static, coords: flatCoords,
		buffer: halfGroup, degraded: halfGroup, parity: 1, prefetch: true, paper: true},
	PrefetchParityDisk: {key: "prefetch-parity-disk", legend: "Pre-fetching with parity disk",
		layout: byCluster, grid: dataDisks, ctrl: capQ, coords: dataDiskCoords,
		buffer: halfGroup, degraded: halfGroup, parity: 1, clustered: true, prefetch: true, paper: true},
	StreamingRAID: {key: "streaming-raid", legend: "Streaming RAID",
		layout: byCluster, grid: clusters, ctrl: capQ, coords: clusterCoords,
		buffer: twoGroups, degraded: twoGroups, parity: 1, clustered: true, prefetch: true, groupFetch: true, paper: true},
	NonClustered: {key: "non-clustered", legend: "Non-clustered",
		layout: byCluster, grid: dataDisks, ctrl: capQ, coords: dataDiskCoords,
		buffer: two, degraded: halfGroup, parity: 1, clustered: true, paper: true},
	DeclusteredDynamic: {key: "declustered-dynamic", legend: "Dynamic reservation",
		table: layout.NewInterleaved, grid: rows, ctrl: dynamic, coords: rowCoords,
		buffer: two, degraded: group, parity: 1, dynamic: true},
	DeclusteredPQ: {key: "declustered-pq", legend: "Declustered P+Q parity",
		table: layout.NewDeclusteredPQ, grid: rows, ctrl: static, coords: rowCoords,
		buffer: two, parity: 2, addDisk: true},
}

// Per-clip buffers in blocks (§4, §6, §7): two for the schemes that read
// one block per round, p/2 for pre-fetching with the staggered-group
// optimization of [BGM95], two whole groups for streaming RAID, and the
// failed block's whole group, p, for a declustered clip whose disk
// failed. Each is a half of a small integer, which float64 holds exactly.
func two(int) float64         { return 2 }
func halfGroup(p int) float64 { return float64(p) / 2 }
func twoGroups(p int) float64 { return 2 * float64(p-1) }
func group(p int) float64     { return float64(p) }

func flat(d, p int, capacity int64) (layout.Layout, error) {
	return layout.NewFlatUniform(d, p, capacity)
}

func byCluster(d, p int, _ int64) (layout.Layout, error) {
	return layout.NewClustered(d, p)
}

// Admission grids. The table schemes book a stream on its first disk and
// PGT row, of which every table has r = max(⌊(d−1)/(p−1)⌋, 1); the flat
// scheme on its first disk and the §6.2 parity-target residue of its
// level, one of d−(p−1); the clustered schemes on their first data disk,
// or, for streaming RAID, on their first cluster.
func rows(d, p int) (int, int)      { return d, max((d-1)/(p-1), 1) }
func flatGrid(d, p int) (int, int)  { return d, d - (p - 1) }
func dataDisks(d, p int) (int, int) { return d * (p - 1) / p, 1 }
func clusters(d, p int) (int, int)  { return d / p, 1 }

func rowCoords(_ layout.Layout, t *layout.Declustered, start int64) (int, int) {
	return t.Place(start).Disk, t.RowOf(start)
}

// flatCoords reads the residue off the FlatUniform the record built.
func flatCoords(lay layout.Layout, _ *layout.Declustered, start int64) (int, int) {
	addr := lay.Place(start)
	return addr.Disk, lay.(*layout.FlatUniform).ParityTargetClass(addr.Block)
}

func dataDiskCoords(lay layout.Layout, _ *layout.Declustered, start int64) (int, int) {
	disk, p := lay.Place(start).Disk, lay.GroupSize()
	return disk/p*(p-1) + disk%p, 0
}

func clusterCoords(lay layout.Layout, _ *layout.Declustered, start int64) (int, int) {
	return lay.Place(start).Disk / lay.GroupSize(), 0
}

// Admission controllers. The static one keeps single parity's
// contingency f even under P+Q: a double-degraded read still spreads
// over one parity group, only with up to one extra source per block.
func static(n, m, q, f int, _ *layout.Declustered) (admission.Controller, error) {
	return admission.NewStatic(n, m, q, max(f, 1))
}

func dynamic(_, _, q, _ int, t *layout.Declustered) (admission.Controller, error) {
	return admission.NewDynamic(t.Table, q)
}

// capQ is the clustered schemes' rule: at most q streams per unit and
// no contingency, the static rule with f = 0 over one class.
func capQ(n, _, q, _ int, _ *layout.Declustered) (admission.Controller, error) {
	return admission.NewStatic(n, 1, q, 0)
}

// Valid reports whether s names one of the seven schemes.
func (s Scheme) Valid() bool { return s != 0 && int(s) < len(records) }

// rec returns s's record; an invalid s gets the zero record, whose
// constructors are nil — callers that build anything check Valid first.
func (s Scheme) rec() *record {
	if !s.Valid() {
		return &records[0]
	}
	return &records[s]
}

// Key is the scheme's flag and metric name ("declustered", …).
func (s Scheme) Key() string { return s.rec().key }

// Legend is the paper's figure-legend name ("Declustered parity", …).
func (s Scheme) Legend() string { return s.rec().legend }

// String returns the key, or Scheme(n) for an invalid value.
func (s Scheme) String() string {
	if !s.Valid() {
		return fmt.Sprintf("Scheme(%d)", uint8(s))
	}
	return s.Key()
}

// Layout builds the scheme's placement of d disks in groups of p over a
// data capacity of capacity blocks. t is the layout by its concrete type
// when a parity group table drives it, nil otherwise.
func (s Scheme) Layout(d, p int, capacity int64) (lay layout.Layout, t *layout.Declustered, err error) {
	r := s.rec()
	switch {
	case !s.Valid():
		return nil, nil, fmt.Errorf("scheme: invalid %v", s)
	case r.table != nil:
		if t, err = r.table(d, p); err != nil {
			return nil, nil, err
		}
		return t, t, nil
	}
	lay, err = r.layout(d, p, capacity)
	return lay, nil, err
}

// Table builds the scheme's parity-group-table layout, or returns nil
// when no table drives the scheme.
func (s Scheme) Table(d, p int) (*layout.Declustered, error) {
	if r := s.rec(); r.table != nil {
		return r.table(d, p)
	}
	return nil, nil
}

// Grid returns the admission coordinates' extent at d disks in groups of
// p: the units a stream is booked on and the contingency classes per
// unit.
func (s Scheme) Grid(d, p int) (units, classes int) { return s.rec().grid(d, p) }

// Admission builds the scheme's admission controller for a per-disk
// (per-cluster for streaming RAID) budget q and contingency f.
func (s Scheme) Admission(d, p, q, f int, t *layout.Declustered) (admission.Controller, error) {
	if !s.Valid() {
		return nil, fmt.Errorf("scheme: invalid %v", s)
	}
	n, m := s.Grid(d, p)
	return s.rec().ctrl(n, m, q, f, t)
}

// Coords maps the placement of start, the block a stream begins fetching
// at, to the admission cell it books; lay and t come from Layout.
func (s Scheme) Coords(lay layout.Layout, t *layout.Declustered, start int64) (unit, class int) {
	return s.rec().coords(lay, t, start)
}

// PerClip is the buffer each admitted stream reserves.
func (s Scheme) PerClip(b units.Bits, p int) units.Bits {
	return units.Bits(s.rec().buffer(p) * float64(b))
}

// BufferBlocks is the per-clip buffer in blocks at group size p: in
// normal operation, and for each clip of the failed unit under §7's
// single-failure analysis. ok is false when §7 analyses no failure of
// the scheme (P+Q).
func (s Scheme) BufferBlocks(p int) (normal, degraded float64, ok bool) {
	r := s.rec()
	if r.degraded == nil {
		return 0, 0, false
	}
	return r.buffer(p), r.degraded(p), true
}

// Continuous reports whether q accesses per disk per round of block size
// b keep playback continuous: Equation 1, or under whole-group fetching
// the §7.3 form as printed, 2·t_seek + q·(t_rot + b/r_d) ≤ (p−1)·b/r_p,
// whose round delivers p−1 blocks and whose accesses pay no settle.
func (s Scheme) Continuous(disk diskmodel.Parameters, p, q int, b units.Bits) bool {
	if s.GroupFetch() {
		disk.Settle = 0
	}
	return q >= 0 && b > 0 && disk.RoundBudgetUsed(q, b) <= units.Duration(s.RoundBlocks(p))*disk.RoundDuration(b)
}

// ParityCols is the number of parity columns per group: how many
// overlapping failures a group survives.
func (s Scheme) ParityCols() int { return s.rec().parity }

// Clustered reports whether every parity group stays inside one p-disk
// cluster, so a failed disk's groups span p disks rather than all d.
func (s Scheme) Clustered() bool { return s.rec().clustered }

// PrefetchDepth is how many blocks ahead of delivery fetching runs.
func (s Scheme) PrefetchDepth(p int) int {
	if s.rec().prefetch {
		return p - 1
	}
	return 1
}

// GroupFetch reports whether a round fetches a whole parity group
// (streaming RAID), whose read also yields a lost member's parity.
func (s Scheme) GroupFetch() bool { return s.rec().groupFetch }

// RoundBlocks is the blocks one round delivers per stream: p−1 under
// whole-group fetching, 1 otherwise.
func (s Scheme) RoundBlocks(p int) int {
	if s.GroupFetch() {
		return p - 1
	}
	return 1
}

// Dynamic reports §5 dynamic reservation: contingency is booked per
// clip over the r super-clips of the row-first layout, and each clip is
// stored inside one super-clip.
func (s Scheme) Dynamic() bool { return s.rec().dynamic }

// CanAddDisk reports whether AddDisk can grow the scheme's array: its
// layout is a pure function of (d, p) and its admission classes do not
// follow the clip address space.
func (s Scheme) CanAddDisk() bool { return s.rec().addDisk }

// All returns the seven schemes in table order.
func All() []Scheme {
	out := make([]Scheme, 0, len(records)-1)
	for s := Declustered; s.Valid(); s++ {
		out = append(out, s)
	}
	return out
}

// Paper returns the five schemes the paper's §7 analysis solves, in
// Figure 5 order.
func Paper() []Scheme {
	var out []Scheme
	for _, s := range All() {
		if s.rec().paper {
			out = append(out, s)
		}
	}
	return out
}

// Names returns the keys of the schemes keep accepts (all of them when
// keep is nil), in table order.
func Names(keep func(Scheme) bool) []string {
	var out []string
	for _, s := range All() {
		if keep == nil || keep(s) {
			out = append(out, s.Key())
		}
	}
	return out
}

// Parse maps a key back to its scheme.
func Parse(name string) (Scheme, error) {
	for _, s := range All() {
		if s.Key() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q (want one of %s)", name, strings.Join(Names(nil), ", "))
}
