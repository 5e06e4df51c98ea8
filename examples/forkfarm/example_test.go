package main

// Example runs the fork storm on both VM systems and pins what it
// prints: BSD VM's collapse work and copies against UVM's none.
func Example() {
	main()
	// Output:
	// bsdvm: 20 workers over a 256 KB region
	//   simulated time:   19.7202ms
	//   pages copied:     2560
	//   collapse scans:   2598 (merged 19 chains, freed 1216 redundant pages)
	//   swap in use:      0 slots
	//
	// uvm: 20 workers over a 256 KB region
	//   simulated time:   12.135ms
	//   pages copied:     1280
	//   collapse scans:   0 (reference counts make collapse unnecessary)
	//   swap in use:      0 slots
}
