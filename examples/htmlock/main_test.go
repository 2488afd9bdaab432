package main

// Example runs the program and pins its output: the simulator is
// deterministic, so any change to these numbers is a change in simulated
// behaviour.
func Example() {
	main()
	// Output:
	// system            cycles     commit  waitlock%  lock%  switchLock%  aborted%
	// Baseline          644430     0.970     0.0      16.6     0.0        49.0
	// LockillerTM-RWIL  790284     0.970     0.0      13.8     0.0        56.9
	// LockillerTM       180363     1.000     0.0       0.0    37.8         0.0
}
