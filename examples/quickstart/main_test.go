package main

// Example runs the program and pins its output: the simulator is
// deterministic, so any change to these numbers is a change in simulated
// behaviour.
func Example() {
	main()
	// Output:
	// CGL           cycles=1135156   commit-rate=1.000  speedup-vs-CGL=1.00x  atomic=true
	// Baseline      cycles=995361    commit-rate=0.317  speedup-vs-CGL=1.14x  atomic=true
	// LockillerTM   cycles=228839    commit-rate=0.606  speedup-vs-CGL=4.96x  atomic=true
}
