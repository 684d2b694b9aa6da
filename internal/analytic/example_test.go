package analytic_test

import (
	"fmt"

	"ftcms/internal/analytic"
	"ftcms/internal/diskmodel"
	"ftcms/internal/scheme"
	"ftcms/internal/units"
)

// ExampleOptimize sizes the paper's 32-disk server with a 256 MB buffer
// for the declustered-parity scheme.
func ExampleOptimize() {
	cfg := analytic.Config{
		Disk:    diskmodel.Default(),
		D:       32,
		Buffer:  256 * units.MB,
		Storage: 9 * units.GB,
	}
	res, err := analytic.Optimize(cfg, scheme.Declustered)
	if err != nil {
		panic(err)
	}
	fmt.Printf("p=%d q=%d f=%d -> %d concurrent clips\n", res.P, res.Q, res.F, res.Clips)
	// Output:
	// p=2 q=22 f=1 -> 672 concurrent clips
}
