// Package sim is a nowallclock fixture: the event kernel gets no exception
// from the concurrency ban, so every goroutine and channel operation below
// is flagged.
package sim

func spawnWorker(work chan int, done chan struct{}) {
	go func() {}() // want `goroutine in deterministic package "sim"`
	work <- 1      // want `channel send in deterministic package "sim"`
	<-done         // want `channel receive in deterministic package "sim"`
	close(work)    // want `channel close in deterministic package "sim"`
}
