package layout

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// pgtFlavours are the three constructors of the PGT-driven placement;
// pgtGeometries the (d, p) they are pinned at — exact λ=1 designs and the
// approximate ones of the paper's evaluation at d=32.
var (
	pgtFlavours = []struct {
		name string
		minP int
		new  func(d, p int) (*Declustered, error)
	}{
		{"declustered", 2, NewDeclustered},
		{"declustered-pq", 3, NewDeclusteredPQ},
		{"declustered-dynamic", 2, NewInterleaved},
	}
	pgtGeometries = [][2]int{{7, 3}, {9, 3}, {13, 4}, {16, 4}, {21, 5}, {32, 4}, {32, 8}, {32, 16}}
)

// placementFingerprint hashes everything a PGT placement answers: Place
// for the first 20 000 logical blocks, LogicalAt for every address up to
// the highest block placed, and GroupAt — member index, data indices and
// addresses, P, Q, HasQ — over those same addresses.
func placementFingerprint(l Layout) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(vs ...int64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	putAddr := func(a BlockAddr) { put(int64(a.Disk), a.Block) }
	var top int64
	for x := int64(0); x < 20000; x++ {
		a := l.Place(x)
		putAddr(a)
		top = max(top, a.Block)
	}
	var g Group
	for disk := 0; disk < l.Disks(); disk++ {
		for b := int64(0); b <= top; b++ {
			a := BlockAddr{Disk: disk, Block: b}
			put(l.LogicalAt(a), int64(l.GroupAt(a, &g)), int64(len(g.Data)))
			put(g.Data...)
			for _, da := range g.DataAddr {
				putAddr(da)
			}
			putAddr(g.Parity)
			putAddr(g.Q)
			if g.HasQ {
				put(1)
			} else {
				put(0)
			}
		}
	}
	return h.Sum64()
}

// TestPGTPlacementFingerprint pins the three PGT placements bit for bit.
// The literals were recorded at commit 523f853, when the three flavours
// were four separate types; the single type that replaced them must
// reproduce every one.
func TestPGTPlacementFingerprint(t *testing.T) {
	want := map[string]uint64{
		"declustered/7/3": 0x4a5089056d87f953, "declustered/9/3": 0x34a7aff369973ddc,
		"declustered/13/4": 0x4d41ade5fa516d06, "declustered/16/4": 0x43fa434c0de976ad,
		"declustered/21/5": 0x52e9b13a10e53661, "declustered/32/4": 0xc7ecf3ff3d7e44bf,
		"declustered/32/8": 0x2e1bfa63772b5872, "declustered/32/16": 0x136b69c8dec7969,
		"declustered-pq/7/3": 0xc85130b43c9b7bb7, "declustered-pq/9/3": 0x40f525cd7dd13bac,
		"declustered-pq/13/4": 0xe03b4e6ad7d55b9, "declustered-pq/16/4": 0xe8c998eff18815e9,
		"declustered-pq/21/5": 0xcd7942c90fcf9979, "declustered-pq/32/4": 0x89deca174aa83003,
		"declustered-pq/32/8": 0x57d6c930a7006d95, "declustered-pq/32/16": 0xa6aec3d628445569,
		"declustered-dynamic/7/3": 0x571b3d910b2c1b7c, "declustered-dynamic/9/3": 0x210ee688203fc411,
		"declustered-dynamic/13/4": 0xba1e805f5708fa76, "declustered-dynamic/16/4": 0x17d618a807dd4f15,
		"declustered-dynamic/21/5": 0x5d1586bd49abf618, "declustered-dynamic/32/4": 0xf9a6b4107fa66ea5,
		"declustered-dynamic/32/8": 0xf6192084889eb709, "declustered-dynamic/32/16": 0x321b887d6ba9cc37,
	}
	for _, f := range pgtFlavours {
		if l, err := f.new(7, 3); err != nil || l.Name() != f.name {
			t.Fatalf("%s: built %v, %v", f.name, l, err)
		}
		for _, g := range pgtGeometries {
			if g[1] < f.minP {
				continue
			}
			l, err := f.new(g[0], g[1])
			if err != nil {
				t.Fatalf("%s(%d,%d): %v", f.name, g[0], g[1], err)
			}
			key := fmt.Sprintf("%s/%d/%d", f.name, g[0], g[1])
			got := placementFingerprint(l)
			if w, ok := want[key]; !ok || got != w {
				t.Errorf("%q: fingerprint %#x, want %#x", key, got, w)
			}
		}
	}
}
