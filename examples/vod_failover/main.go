// VoD failover drill: run the paper's 32-disk video-on-demand workload
// (Poisson arrivals, 1000-clip library) with a disk failing mid-run, and
// compare how each fault-tolerance scheme rides through it. The
// rate-guaranteeing schemes (declustered parity and the pre-fetching
// schemes) deliver every block on time; the non-clustered baseline loses
// blocks in the transition and misses deadlines afterwards — the paper's
// §9 caveat, reproduced.
package main

import (
	"fmt"
	"log"

	"ftcms/internal/diskmodel"
	"ftcms/internal/experiments"
	"ftcms/internal/scheme"
	"ftcms/internal/sim"
	"ftcms/internal/units"
)

func main() {
	catalog := experiments.PaperCatalog()
	fmt.Println("32-disk VoD server, Poisson(20/s) arrivals, disk 5 fails at t=100s")
	fmt.Println()
	fmt.Printf("%-36s %8s %10s %15s %12s\n", "scheme", "p", "serviced", "deadline misses", "lost blocks")

	cases := []struct {
		scheme scheme.Scheme
		p      int
	}{
		{scheme.Declustered, 2},
		{scheme.Declustered, 32},
		{scheme.PrefetchFlat, 2},
		{scheme.PrefetchParityDisk, 8},
		{scheme.StreamingRAID, 8},
		{scheme.NonClustered, 8},
	}
	for _, c := range cases {
		res, err := sim.Run(sim.Config{
			Scheme:      c.scheme,
			Disk:        diskmodel.Default(),
			D:           32,
			P:           c.p,
			Buffer:      256 * units.MB,
			Catalog:     catalog,
			ArrivalRate: 20,
			Duration:    300 * units.Second,
			Seed:        7,
			Trace:       []sim.FailureEvent{{Disk: 5, At: 100 * units.Second}},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-36v %8d %10d %15d %12d\n",
			c.scheme.Legend(), c.p, res.Serviced, res.DeadlineMisses, res.LostBlocks)
	}

	fmt.Println()
	fmt.Println("Every scheme except the non-clustered baseline sustains all")
	fmt.Println("admitted streams through the failure with zero misses: the")
	fmt.Println("contingency bandwidth (or pre-fetched parity groups) absorbs the")
	fmt.Println("reconstruction load, as §4–§6 of the paper guarantee.")
}
