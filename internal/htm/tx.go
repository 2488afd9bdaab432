package htm

import "repro/internal/priority"

// TxState is the per-hardware-thread transactional state shared between
// the core model (which retires instructions and begins/ends transactions)
// and the L1 controller (which detects conflicts and computes priorities).
type TxState struct {
	Core int
	Cfg  Config

	// Mode is the current execution mode.
	Mode Mode
	// Attempt counts execution attempts of the current atomic section
	// (1 = first try).
	Attempt int
	// InstsRetired counts instructions retired in the current attempt;
	// it feeds the insts-based priority policy and resets on abort.
	InstsRetired uint64
	// TriedSwitch marks that this transaction already attempted a
	// switchingMode application (each transaction may try once).
	TriedSwitch bool
	// Doomed marks a transaction that has been aborted asynchronously (by
	// an external conflict) but whose core has not yet rolled back.
	Doomed bool
	// DoomCause records why the transaction was doomed.
	DoomCause AbortCause

	// Statistics for the current attempt, used by the stats package.
	AttemptStart uint64

	// readSet/writeSet sizes are tracked by the L1 array; the controller
	// mirrors the counts here so the progression policy can use them
	// without scanning the array. Overflowed (signature) lines count too.
	ReadLines  int
	WriteLines int
}

// Priority returns the transaction's current arbitration priority. Lock
// transactions (TL/STL) always carry the global maximum (paper §III-B:
// "setting the priority of the transaction currently in HTMLock mode to
// the highest global priority").
func (t *TxState) Priority() uint64 {
	if t.Mode.Lock() {
		return priority.Max
	}
	if t.Mode != HTM {
		return 0
	}
	if t.Cfg.Priority == nil {
		return 0
	}
	return t.Cfg.Priority.Priority(t.InstsRetired, t.ReadLines, t.WriteLines)
}

// InTx reports whether the thread is inside any kind of tracked
// transaction (HTM, TL, or STL).
func (t *TxState) InTx() bool { return t.Mode == HTM || t.Mode.Lock() }

// BeginAttempt resets per-attempt counters when a speculative attempt (or
// a lock-mode execution) starts.
func (t *TxState) BeginAttempt(mode Mode, now uint64) {
	t.Mode = mode
	t.Attempt++
	t.InstsRetired = 0
	t.Doomed = false
	t.DoomCause = CauseNone
	t.AttemptStart = now
	t.ReadLines = 0
	t.WriteLines = 0
}

// Reset clears all state when an atomic section completes.
func (t *TxState) Reset() {
	t.Mode = NonTx
	t.Attempt = 0
	t.InstsRetired = 0
	t.TriedSwitch = false
	t.Doomed = false
	t.DoomCause = CauseNone
	t.ReadLines = 0
	t.WriteLines = 0
}

// Doom marks the transaction for abort with the given cause; the first
// cause wins (later dooms of an already-doomed transaction are ignored, as
// in hardware where the abort status register is write-once per attempt).
func (t *TxState) Doom(cause AbortCause) {
	if t.Doomed {
		return
	}
	t.Doomed = true
	t.DoomCause = cause
}
