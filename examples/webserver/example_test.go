package main

// Example runs the Figure 2 server scenario and pins what it prints:
// BSD VM's wall past its 100-object cache against UVM's flat curve.
func Example() {
	main()
	// Output:
	// Apache-style server, 64 KB files, two passes over the working set
	//    files      BSD VM pass         UVM pass
	//       50         2.7985ms         1.1845ms
	//      100          5.597ms          2.369ms
	//      150       6.0165705s         3.5535ms
	//      250      10.0236175s         5.9225ms
	//
	// BSD VM's wall appears at its 100-object cache limit; UVM stays flat
	// because unreferenced vnodes keep their pages until the vnode cache
	// itself needs to recycle them.
}
