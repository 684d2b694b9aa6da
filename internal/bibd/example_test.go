package bibd_test

import (
	"fmt"

	"ftcms/internal/bibd"
)

// ExampleNew constructs the Fano plane of the paper's Example 1.
func ExampleNew() {
	d, err := bibd.New(7, 3)
	if err != nil {
		panic(err)
	}
	for i, s := range d.Sets {
		fmt.Printf("S%d = %v\n", i, s)
	}
	// Output:
	// S0 = [0 1 3]
	// S1 = [1 2 4]
	// S2 = [2 3 5]
	// S3 = [3 4 6]
	// S4 = [0 4 5]
	// S5 = [1 5 6]
	// S6 = [0 2 6]
}

// ExampleSteinerTriple builds an exact (15,3,1) design via the Bose
// construction and verifies it.
func ExampleSteinerTriple() {
	d, err := bibd.SteinerTriple(15)
	if err != nil {
		panic(err)
	}
	st, err := bibd.Verify(d)
	if err != nil {
		panic(err)
	}
	fmt.Printf("STS(15): %d triples, r=%d, exact=%v\n", len(d.Sets), d.Replication(), st.Exact)
	// Output:
	// STS(15): 35 triples, r=7, exact=true
}
