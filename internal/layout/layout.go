// Package layout implements the data/parity placements of Özden et al.
// (SIGMOD 1996): the declustered-parity placement of §4.1 (Figure 2) —
// one type that also carries its P+Q double-parity form and the super-clip
// addressing of the dynamic reservation scheme (§5.1) — the clustered
// placement with dedicated parity disks shared by the
// pre-fetching scheme of §6.1, streaming RAID [TPBG93] and the
// non-clustered scheme [BGM95], and the flat-uniform placement of §6.2
// (Figure 3).
//
// A layout answers three questions about a store of logical data blocks
// striped over d disks:
//
//   - where does logical data block i live (disk, disk-block)?
//   - which blocks form its parity group, and where is the parity block?
//   - which disk block holds what (data i / parity / unused)?
//
// Placements are arithmetic (O(1) per query, no allocation tables), which
// the package's golden tests pin against the paper's worked examples.
package layout

import "fmt"

// BlockAddr addresses one block on one disk.
type BlockAddr struct {
	// Disk is the disk index in [0, d).
	Disk int
	// Block is the block index on that disk.
	Block int64
}

func (a BlockAddr) String() string { return fmt.Sprintf("(disk %d, block %d)", a.Disk, a.Block) }

// Group describes one parity group: the logical indices of its data
// blocks, their addresses, and the parity block's address. Data blocks
// past the end of the stored stream simply contain zeroes; parity is
// always well defined.
type Group struct {
	// Data lists the logical data block indices of the group, ascending.
	Data []int64
	// DataAddr lists the corresponding disk addresses, parallel to Data.
	DataAddr []BlockAddr
	// Parity is the address of the group's parity block (the XOR column
	// P for double-parity layouts).
	Parity BlockAddr
	// Q is the address of the group's second, Reed-Solomon-coded parity
	// block. Only meaningful when HasQ is set; single-parity layouts
	// leave it zero.
	Q BlockAddr
	// HasQ reports whether the group carries a Q column — i.e. whether
	// the layout is a P+Q double-parity placement. The data block at
	// Data[k] takes Q coefficient g^k.
	HasQ bool
}

// Layout is the common interface over all placements.
type Layout interface {
	// Disks returns d, the number of disks in the array.
	Disks() int
	// GroupSize returns p, the parity group size (data blocks + parity).
	GroupSize() int
	// Place returns the address of logical data block i (i >= 0).
	Place(i int64) BlockAddr
	// LogicalAt returns the logical data block stored at addr, or -1 when
	// the address holds parity.
	LogicalAt(addr BlockAddr) int64
	// GroupAt fills g with the parity group that owns the block at addr —
	// a data, P or Q block alike — reusing g's slices, and returns addr's
	// member index in it: k for Data[k], len(Data) for P, len(Data)+1 for
	// Q. It returns -1, with g unspecified, when no group has a block at
	// addr. Once g's slices have grown to the group size it allocates
	// nothing. The group of logical block i is GroupAt(Place(i), g).
	GroupAt(addr BlockAddr, g *Group) int
}

// member returns addr's member index in g (see Layout.GroupAt).
func (g *Group) member(addr BlockAddr) int {
	for k, a := range g.DataAddr {
		if a == addr {
			return k
		}
	}
	switch {
	case addr == g.Parity:
		return len(g.Data)
	case g.HasQ && addr == g.Q:
		return len(g.Data) + 1
	}
	return -1
}

// checkDiskRange panics on an out-of-range disk; placements are internal
// math, so a bad disk index is always a programming error.
func checkDiskRange(disk, d int) {
	if disk < 0 || disk >= d {
		panic(fmt.Sprintf("layout: disk %d out of range [0, %d)", disk, d))
	}
}
