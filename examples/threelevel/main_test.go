package main

// Example runs the program and pins its output: the simulator is
// deterministic, so any change to these numbers is a change in simulated
// behaviour.
func Example() {
	main()
	// Output:
	// vacation, 8 threads (sharing-heavy: two-level wins)
	//   Baseline     cycles=1172966   commit=0.479 of-aborts=393 mid-hits=54483
	//   Baseline-3L  cycles=753244    commit=0.721 of-aborts=0 mid-hits=53014
	// labyrinth, 2 threads (overflow-heavy: the middle cache absorbs write sets)
	//   Baseline     cycles=2215086   commit=0.189 of-aborts=65 mid-hits=62623
	//   Baseline-3L  cycles=1758772   commit=0.278 of-aborts=0 mid-hits=53311
}
