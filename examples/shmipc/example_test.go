package main

// Example runs the SysV shared-memory ring on both VM systems and pins
// what it prints: every message delivered, no page copied, no segment
// left.
func Example() {
	main()
	// Output:
	// bsdvm: delivered 64/64 messages through a 16 KB SysV shm ring
	//   pages copied: 0 (shared mapping: data never copied)
	//   segments remaining after RMID+detach: 0
	//
	// uvm: delivered 64/64 messages through a 16 KB SysV shm ring
	//   pages copied: 0 (shared mapping: data never copied)
	//   segments remaining after RMID+detach: 0
}
