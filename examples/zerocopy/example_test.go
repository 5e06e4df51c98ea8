package main

// Example runs the §7 data-movement pipeline and pins what it prints,
// among it the paper's claim that loanout plus transfer moves a 256 KB
// message in about a fifth of the double copy's simulated time.
func Example() {
	main()
	// Output:
	// loan+transfer delivered: "a large message built in the producer's address space"
	// producer still sees:     "a large message built in the producer's address space"
	//
	// moving a 256 KB message (simulated time):
	//   double copy:         319.6µs
	//   loanout+transfer:     63.6µs   (80% less)
	//   map entry pass:        860ns   (100% less)
	//
	// pages copied during the whole run: 1 (copy path) — the VM paths moved none
}
