// Package cpu models the in-order, single-issue cores of the simulated CMP
// (Table I) and the transactional programs they run: per-thread sequences
// of atomic sections, non-transactional work, and barriers, executed under
// one of the evaluated synchronization systems (CGL, best-effort HTM, or a
// LockillerTM variant).
package cpu

import "repro/internal/mem"

// OpKind is the kind of one dynamic operation.
type OpKind uint8

const (
	// OpCompute retires N non-memory instructions (N cycles on the 1-IPC
	// in-order core).
	OpCompute OpKind = iota
	// OpRead loads from a line.
	OpRead
	// OpWrite stores to a line.
	OpWrite
	// OpFault raises an exception (yada's transaction-killing events); in
	// speculative mode it aborts the transaction, in non-speculative modes
	// it costs the machine's fault penalty and continues.
	OpFault
	// OpRMW atomically increments a functional counter at a line: a load,
	// then a store, with the new value staged speculatively and applied at
	// commit. Counters let tests verify end-to-end atomicity — if the
	// protocol ever allowed two transactions to read the same value and
	// both commit, the final count would come up short (a lost update).
	OpRMW
)

// Op is one dynamic operation of a thread program.
type Op struct {
	Kind OpKind
	Line mem.Line
	N    uint64 // compute amount for OpCompute
}

// Read, Write, Compute, Fault, and RMW are convenience constructors.
func Read(l mem.Line) Op  { return Op{Kind: OpRead, Line: l} }
func Write(l mem.Line) Op { return Op{Kind: OpWrite, Line: l} }
func Compute(n uint64) Op { return Op{Kind: OpCompute, N: n} }
func Fault() Op           { return Op{Kind: OpFault} }
func RMW(l mem.Line) Op   { return Op{Kind: OpRMW, Line: l} }

// Section is one step of a thread program.
type Section struct {
	// Atomic marks a critical section: executed as a transaction (or under
	// the global lock for CGL). Its operations are Ops, the same on every
	// attempt, unless Gen is set.
	Atomic bool
	// Gen, when non-nil, regenerates an atomic section's operations on
	// every attempt — dynamic workloads (labyrinth) re-read shared state
	// after an abort and may take a different path. It appends the
	// attempt's ops to dst and returns the extended slice, and must not
	// return storage it keeps: the core reuses dst for its next attempt.
	Gen func(dst []Op, attempt int) []Op

	// Barrier marks a whole-program synchronization point.
	Barrier bool

	// Ops are the operations of a non-atomic section, or of an atomic
	// section without Gen.
	Ops []Op
}

// Body returns the atomic section's operations for the given attempt: Ops,
// or Gen's draw appended to dst.
func (s Section) Body(dst []Op, attempt int) []Op {
	if s.Gen == nil {
		return s.Ops
	}
	return s.Gen(dst, attempt)
}

// AtomicStatic builds an atomic section with a static body.
func AtomicStatic(ops []Op) Section { return Section{Atomic: true, Ops: ops} }

// AtomicDynamic builds an atomic section whose body is regenerated per
// attempt (see Section.Gen for the contract).
func AtomicDynamic(gen func(dst []Op, attempt int) []Op) Section {
	return Section{Atomic: true, Gen: gen}
}

// Plain builds a non-atomic section.
func Plain(ops []Op) Section { return Section{Ops: ops} }

// BarrierSection builds a barrier.
func BarrierSection() Section { return Section{Barrier: true} }

// Program is a thread's full instruction stream.
type Program []Section

// CountAtomic returns the number of atomic sections, used by tests to
// check conservation (every section completes exactly once regardless of
// the synchronization system).
func (p Program) CountAtomic() int {
	n := 0
	for _, s := range p {
		if s.Atomic {
			n++
		}
	}
	return n
}
