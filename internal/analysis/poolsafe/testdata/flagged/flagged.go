// Package coherence is a poolsafe fixture: every flow below violates the
// pooled-object ownership rules and must be flagged. The types mirror the
// real message pool (fixtures are self-contained).
package coherence

// Msg is a pooled protocol message.
type Msg struct {
	Line     uint64
	recycled bool
}

// System owns the message free list.
type System struct {
	msgFree []*Msg
}

func (s *System) alloc() *Msg {
	if n := len(s.msgFree); n > 0 {
		m := s.msgFree[n-1]
		s.msgFree = s.msgFree[:n-1]
		return m
	}
	return new(Msg)
}

func (s *System) free(m *Msg) {
	if m.recycled {
		panic("double free")
	}
	m.recycled = true
	s.msgFree = append(s.msgFree, m)
}

// release reaches the sink two helpers deep (release -> finish -> free). It
// is declared before finish, so only a second pass of the sink fixpoint
// learns that it frees.
func (s *System) release(m *Msg) {
	s.finish(m)
}

// finish is a helper that forwards its parameter to the sink: callers lose
// ownership exactly as if they had called free directly.
func (s *System) finish(m *Msg) {
	s.free(m)
}

// useAfterFree reads a field after releasing the message.
func useAfterFree(s *System) uint64 {
	m := s.alloc()
	m.Line = 7
	s.free(m)
	return m.Line // want `use of m after it was freed`
}

// doubleFree releases the same message twice.
func doubleFree(s *System) {
	m := s.alloc()
	s.free(m)
	s.free(m) // want `double free of m`
}

// helperThenUse loses ownership through the helper, then reads anyway.
func helperThenUse(s *System) uint64 {
	m := s.alloc()
	s.finish(m)
	return m.Line // want `use of m after it was freed`
}

// deepHelperThenUse loses ownership two helpers deep, then reads anyway.
func deepHelperThenUse(s *System) uint64 {
	m := s.alloc()
	s.release(m)
	return m.Line // want `use of m after it was freed`
}

// branchFree frees on one path and uses on the joined path: the use is a
// bug whenever the branch was taken.
func branchFree(s *System, drop bool) uint64 {
	m := s.alloc()
	if drop {
		s.free(m)
	}
	return m.Line // want `use of m after it was freed`
}

// storeAfterFree writes through the released pointer, corrupting whoever
// holds the recycled object next.
func storeAfterFree(s *System) {
	m := s.alloc()
	s.free(m)
	m.Line = 9 // want `use of m after it was freed`
}
