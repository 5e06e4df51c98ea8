package main

// Example runs the quickstart tour and pins what it prints: the
// mapped file's bytes, copy-on-write isolation across fork, the clustered
// pageout of a region larger than RAM, and a leak-free exit.
func Example() {
	main()
	// Output:
	// mapped file reads: "hello from page 0 of motd\n\x00"
	// after private write, file still starts: "hello"
	// child inherited:   "REWRITTEN"
	// parent unaffected: "REWRITTEN"
	//
	// touched 48 MB on a 32 MB machine in 2.68823715s simulated time
	// pageouts: 4158 pages in 65 swap I/Os (clusters of ~63)
	// after exit: 0 swap slots in use, 0 anons live
}
