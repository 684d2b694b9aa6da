package layout

import "fmt"

// Clustered is the placement with dedicated parity disks shared by three
// schemes of the paper: the pre-fetching scheme of §6.1, streaming RAID
// [TPBG93] (§7.3) and the non-clustered scheme [BGM95] (§7.4). The d
// disks form d/p clusters of p disks; the last disk of each cluster is its
// parity disk, the first p−1 hold data. Data blocks stripe round-robin
// over the data disks of all clusters; the p−1 data blocks at one
// disk-block level of one cluster plus the parity block at the same level
// of the cluster's parity disk form a parity group.
//
// The three schemes share this geometry and differ only in retrieval
// granularity, buffering and degraded-mode behaviour, which live in the
// admission/recovery layers.
type Clustered struct {
	d, p int
}

// NewClustered builds the shared geometry. p must divide d and p >= 2.
func NewClustered(d, p int) (*Clustered, error) {
	if p < 2 {
		return nil, fmt.Errorf("layout: clustered: parity group size %d < 2", p)
	}
	if d < p || d%p != 0 {
		return nil, fmt.Errorf("layout: clustered: cluster size p=%d must divide d=%d", p, d)
	}
	return &Clustered{d: d, p: p}, nil
}

// Disks implements Layout.
func (l *Clustered) Disks() int { return l.d }

// GroupSize implements Layout.
func (l *Clustered) GroupSize() int { return l.p }

// Clusters returns the number of clusters, d/p.
func (l *Clustered) Clusters() int { return l.d / l.p }

// DataDisks returns the number of data disks, d·(p−1)/p.
func (l *Clustered) DataDisks() int { return l.Clusters() * (l.p - 1) }

// ParityDiskOf returns the parity disk of cluster c (its last disk).
func (l *Clustered) ParityDiskOf(c int) int { return c*l.p + l.p - 1 }

// IsParityDisk reports whether disk is a dedicated parity disk.
func (l *Clustered) IsParityDisk(disk int) bool {
	checkDiskRange(disk, l.d)
	return disk%l.p == l.p-1
}

// dataDiskAt maps a data-disk ordinal (0..DataDisks()-1) to a physical
// disk, skipping parity disks.
func (l *Clustered) dataDiskAt(ord int) int {
	c := ord / (l.p - 1)
	w := ord % (l.p - 1)
	return c*l.p + w
}

// Place implements Layout: logical block i goes to the (i mod
// DataDisks())-th data disk at level i div DataDisks().
func (l *Clustered) Place(i int64) BlockAddr {
	if i < 0 {
		panic("layout: negative logical block")
	}
	dd := int64(l.DataDisks())
	return BlockAddr{Disk: l.dataDiskAt(int(i % dd)), Block: i / dd}
}

// LogicalAt implements Layout.
func (l *Clustered) LogicalAt(addr BlockAddr) int64 {
	checkDiskRange(addr.Disk, l.d)
	if l.IsParityDisk(addr.Disk) {
		return -1
	}
	c := addr.Disk / l.p
	w := addr.Disk % l.p
	ord := c*(l.p-1) + w
	return addr.Block*int64(l.DataDisks()) + int64(ord)
}

// GroupAt implements Layout: the group at addr is the p−1 consecutive
// logical blocks occupying its cluster at its level, with parity on the
// cluster's parity disk at the same level.
func (l *Clustered) GroupAt(addr BlockAddr, g *Group) int {
	checkDiskRange(addr.Disk, l.d)
	c := addr.Disk / l.p
	first := addr.Block*int64(l.DataDisks()) + int64(c)*int64(l.p-1)
	*g = Group{Data: g.Data[:0], DataAddr: g.DataAddr[:0]}
	for k := 0; k < l.p-1; k++ {
		g.Data = append(g.Data, first+int64(k))
		g.DataAddr = append(g.DataAddr, BlockAddr{Disk: c*l.p + k, Block: addr.Block})
	}
	g.Parity = BlockAddr{Disk: l.ParityDiskOf(c), Block: addr.Block}
	return addr.Disk % l.p
}
