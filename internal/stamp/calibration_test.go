package stamp

import (
	"math"
	"testing"

	"repro/internal/cpu"
)

// TestProfileCalibration verifies that the generated transactions actually
// exhibit the read/write-set sizes their profiles declare: the generators
// are the evaluation's ground truth, so drift here would silently distort
// every figure.
func TestProfileCalibration(t *testing.T) {
	for _, p := range Workloads() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			progs := Programs(p, 4, 99)
			var txs, reads, writes, faults int
			for _, prog := range progs {
				for _, sec := range prog {
					if !sec.Atomic {
						continue
					}
					txs++
					for _, op := range sec.Body(nil, 1) {
						switch op.Kind {
						case cpu.OpRead:
							reads++
						case cpu.OpWrite:
							writes++
						case cpu.OpFault:
							faults++
						}
					}
				}
			}
			if txs == 0 {
				t.Fatal("no transactions generated")
			}
			meanR := float64(reads) / float64(txs)
			meanW := float64(writes) / float64(txs)
			// Geometric draws have high variance; allow a 40% band.
			if p.TxReads > 0 {
				if rel := math.Abs(meanR-float64(p.TxReads)) / float64(p.TxReads); rel > 0.4 {
					t.Fatalf("mean reads/tx = %.1f, profile says %d", meanR, p.TxReads)
				}
			}
			wantW := float64(p.TxWrites)
			if p.PathLength > 0 {
				wantW += float64(p.PathLength) // path writes: PathLength/2 + U[0,PathLength)
			}
			if wantW > 0 {
				if rel := math.Abs(meanW-wantW) / wantW; rel > 0.5 {
					t.Fatalf("mean writes/tx = %.1f, profile implies ~%.1f", meanW, wantW)
				}
			}
			// Fault frequency tracks FaultProb.
			if p.FaultProb > 0 {
				frac := float64(faults) / float64(txs)
				if frac < p.FaultProb/2 || frac > p.FaultProb*1.6 {
					t.Fatalf("faulting fraction %.2f, profile says %.2f", frac, p.FaultProb)
				}
			} else if faults > 0 {
				t.Fatalf("%d faults in a fault-free profile", faults)
			}
		})
	}
}

// TestContentionOrdering: the "+" variants must conflict more than their
// low-contention bases under identical conditions — the property the
// paper's kmeans/kmeans+ and vacation/vacation+ splits depend on.
func TestContentionOrdering(t *testing.T) {
	measure := func(p Profile) float64 {
		// Estimate conflict pressure as expected pairwise hot-write overlap:
		// writes-to-hot^2 / hot-lines (order-of-magnitude contention proxy).
		w := float64(p.TxWrites) * p.HotWriteFrac
		return w * w / float64(p.HotLines)
	}
	if measure(KmeansHigh()) <= measure(Kmeans()) {
		t.Fatal("kmeans+ must be more contended than kmeans")
	}
	if measure(VacationHigh()) <= measure(Vacation()) {
		t.Fatal("vacation+ must be more contended than vacation")
	}
}
