// Capacity planning: size a video-on-demand server with the paper's §7
// analysis. Given a disk model, an array width, a RAM budget and a target
// client count, find — for every fault-tolerance scheme — the optimal
// parity group size, block size and contingency reservation, and report
// which schemes meet the target and at what RAM cost.
package main

import (
	"fmt"
	"log"

	"ftcms/internal/analytic"
	"ftcms/internal/diskmodel"
	"ftcms/internal/scheme"
	"ftcms/internal/units"
)

func main() {
	const (
		disks  = 32
		target = 600 // concurrent MPEG-1 clients we must support
	)
	library := units.Bits(1000) * 50 * 1_500_000 // 1000 clips × 50 s × 1.5 Mbps

	fmt.Printf("Sizing a %d-disk server for %d concurrent clients\n\n", disks, target)
	for _, ram := range []units.Bits{128 * units.MB, 256 * units.MB, 512 * units.MB, 1 * units.GB, 2 * units.GB} {
		cfg := analytic.Config{
			Disk:    diskmodel.Default(),
			D:       disks,
			Buffer:  ram,
			Storage: library,
		}
		fmt.Printf("RAM budget %v:\n", ram)
		for _, s := range scheme.Paper() {
			res, err := analytic.Optimize(cfg, s)
			if err != nil {
				log.Fatalf("%v: %v", s, err)
			}
			verdict := "MISSES target"
			if res.Clips >= target {
				verdict = "meets target ✓"
			}
			fmt.Printf("  %-36s p=%-3d b=%-8v q=%-3d f=%-2d -> %4d clips  %s\n",
				s.Legend(), res.P, res.Block, res.Q, res.F, res.Clips, verdict)
		}
		fmt.Println()
	}

	fmt.Println("Reading the table: the declustered scheme wins when RAM is scarce")
	fmt.Println("(small per-clip buffers); the pre-fetching schemes overtake it once")
	fmt.Println("RAM is plentiful, because they need no reserved disk bandwidth —")
	fmt.Println("exactly the trade-off the paper's Figure 5 reports.")
}
