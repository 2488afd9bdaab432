package main

// Example runs the program and pins its output: the simulator is
// deterministic, so any change to these numbers is a change in simulated
// behaviour.
func Example() {
	main()
	// Output:
	// system           commit-rate  aborts  fallback-runs  cycles
	// Baseline         0.250        2750    283            280344
	// LockillerTM-RAI  0.517        1010    119            140009
	// LockillerTM-RRI  0.668        579     34             136035
	// LockillerTM-RWI  0.671        570     39             164087
}
