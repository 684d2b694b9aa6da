package layout

import "fmt"

// FlatUniform is the uniform, flat parity placement of §6.2 (Figure 3),
// used by the pre-fetching scheme without parity disks. The d disks form
// d/(p−1) clusters of p−1 disks each; data blocks stripe round-robin over
// *all* d disks; the p−1 data blocks at one level of one cluster form a
// parity group whose parity block is stored on the
// (g mod (d−(p−1)))-th disk following the cluster's last disk, where g is
// the group's level — so parity load rotates uniformly over the array.
//
// Parity blocks live past the data region: the layout is sized with a
// fixed data capacity so parity block numbers are well defined. On each
// disk, parity blocks are ordered by (cluster, level), which reproduces
// the paper's Figure 3 exactly (golden-tested).
type FlatUniform struct {
	d, p int
	// dataBlocks is the store's data capacity in blocks, rounded up to a
	// full stripe (multiple of d).
	dataBlocks int64
}

// NewFlatUniform builds the layout. p−1 must divide d, p >= 2, and
// dataBlocks > 0 fixes the data region size (rounded up to a stripe).
func NewFlatUniform(d, p int, dataBlocks int64) (*FlatUniform, error) {
	if p < 2 {
		return nil, fmt.Errorf("layout: flat-uniform: parity group size %d < 2", p)
	}
	if d < p || d%(p-1) != 0 {
		return nil, fmt.Errorf("layout: flat-uniform: cluster size p−1=%d must divide d=%d", p-1, d)
	}
	if d-(p-1) < 1 {
		return nil, fmt.Errorf("layout: flat-uniform: need d > p−1")
	}
	if dataBlocks <= 0 {
		return nil, fmt.Errorf("layout: flat-uniform: dataBlocks must be positive")
	}
	if rem := dataBlocks % int64(d); rem != 0 {
		dataBlocks += int64(d) - rem
	}
	return &FlatUniform{d: d, p: p, dataBlocks: dataBlocks}, nil
}

// Name implements Layout.
func (l *FlatUniform) Name() string { return "prefetch-flat" }

// Disks implements Layout.
func (l *FlatUniform) Disks() int { return l.d }

// GroupSize implements Layout.
func (l *FlatUniform) GroupSize() int { return l.p }

// Clusters returns d/(p−1).
func (l *FlatUniform) Clusters() int { return l.d / (l.p - 1) }

// levels returns the height of the data region on each disk.
func (l *FlatUniform) levels() int64 { return l.dataBlocks / int64(l.d) }

// Place implements Layout.
func (l *FlatUniform) Place(i int64) BlockAddr {
	if i < 0 {
		panic("layout: negative logical block")
	}
	if i >= l.dataBlocks {
		panic(fmt.Sprintf("layout: flat-uniform: block %d beyond data capacity %d", i, l.dataBlocks))
	}
	return BlockAddr{Disk: int(i % int64(l.d)), Block: i / int64(l.d)}
}

// parityTargetDisk returns the disk storing parity for the level-g group
// of cluster c: the (g mod (d−(p−1)))-th disk after the cluster's last.
func (l *FlatUniform) parityTargetDisk(c int, g int64) int {
	last := c*(l.p-1) + (l.p - 2)
	return (last + 1 + int(g%int64(l.d-(l.p-1)))) % l.d
}

// parityLevels counts the levels g' < limit of cluster c whose parity
// lands on disk target, and returns the lowest such level (the others
// follow at period M = d−(p−1)).
func (l *FlatUniform) parityLevels(c, target int, limit int64) (count, first int64) {
	M := int64(l.d - (l.p - 1))
	// Levels g' with (base + g' mod M) mod d == target:
	// g' mod M == (target - base) mod d, representable iff < M.
	first = int64(((target-l.parityTargetDisk(c, 0))%l.d + l.d) % l.d)
	if first >= M || limit <= first {
		return 0, first
	}
	return (limit - first + M - 1) / M, first
}

// parityBlockNumber returns the disk block number holding parity for
// (cluster c, level g) on its target disk: parity blocks follow the data
// region in (cluster, level) order.
func (l *FlatUniform) parityBlockNumber(c int, g int64) int64 {
	target := l.parityTargetDisk(c, g)
	// Count parity blocks (c', g') lexicographically before (c, g) that
	// also land on target.
	seq, _ := l.parityLevels(c, target, g)
	for cp := 0; cp < c; cp++ {
		n, _ := l.parityLevels(cp, target, l.levels())
		seq += n
	}
	return l.levels() + seq
}

// parityGroupAt inverts parityBlockNumber: the (cluster, level) whose
// parity block is addr, or ok=false when addr lies past the disk's last
// parity block.
func (l *FlatUniform) parityGroupAt(addr BlockAddr) (c int, g int64, ok bool) {
	seq := addr.Block - l.levels()
	for c := 0; c < l.Clusters(); c++ {
		n, first := l.parityLevels(c, addr.Disk, l.levels())
		if seq < n {
			return c, first + seq*int64(l.d-(l.p-1)), true
		}
		seq -= n
	}
	return 0, 0, false
}

// LogicalAt implements Layout.
func (l *FlatUniform) LogicalAt(addr BlockAddr) int64 {
	checkDiskRange(addr.Disk, l.d)
	if addr.Block >= l.levels() {
		return -1 // parity region (or unused)
	}
	return addr.Block*int64(l.d) + int64(addr.Disk)
}

// GroupOf implements Layout.
func (l *FlatUniform) GroupOf(i int64) Group {
	g := newGroup(l.GroupSize())
	l.GroupAt(l.Place(i), &g)
	return g
}

// GroupAt implements Layout: a data block at level g of cluster
// c = disk/(p−1) belongs to the p−1 blocks of that cluster's level; a
// block past the data region is the parity of the (cluster, level) its
// sequence number on the disk decodes to.
func (l *FlatUniform) GroupAt(addr BlockAddr, g *Group) int {
	checkDiskRange(addr.Disk, l.d)
	c, level, idx := addr.Disk/(l.p-1), addr.Block, addr.Disk%(l.p-1)
	*g = Group{Data: g.Data[:0], DataAddr: g.DataAddr[:0], Parity: addr}
	if level >= l.levels() {
		var ok bool
		if c, level, ok = l.parityGroupAt(addr); !ok {
			return -1
		}
		idx = l.p - 1
	} else {
		g.Parity = BlockAddr{Disk: l.parityTargetDisk(c, level), Block: l.parityBlockNumber(c, level)}
	}
	first := level*int64(l.d) + int64(c)*int64(l.p-1)
	for k := 0; k < l.p-1; k++ {
		g.Data = append(g.Data, first+int64(k))
		g.DataAddr = append(g.DataAddr, BlockAddr{Disk: c*(l.p-1) + k, Block: level})
	}
	return idx
}

// ParityTargetClass returns the residue g mod (d−(p−1)) that determines
// which disk holds parity for a block at level g — the §6.2 admission
// control constraint groups clips by this class.
func (l *FlatUniform) ParityTargetClass(level int64) int {
	return int(level % int64(l.d-(l.p-1)))
}
