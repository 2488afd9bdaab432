// Package noc is an evtalloc fixture: closure-literal scheduling in a hot
// package must be flagged. Engine mirrors sim.Engine's scheduling surface
// (fixtures are self-contained).
package noc

// Engine stands in for sim.Engine.
type Engine struct{}

func (e *Engine) At(t uint64, fn func())    {}
func (e *Engine) After(d uint64, fn func()) {}

// Handler mirrors sim.Handler.
type Handler interface {
	OnEvent(kind uint8, a uint64, p any)
}

func (e *Engine) AtEvent(t uint64, h Handler, kind uint8, a uint64, p any)    {}
func (e *Engine) AfterEvent(d uint64, h Handler, kind uint8, a uint64, p any) {}

type link struct {
	engine *Engine
	busy   uint64
}

// deliverLater allocates one closure per flit: regression.
func (l *link) deliverLater(cycle uint64, flit uint64) {
	l.engine.At(cycle, func() { // want `closure literal passed to Engine\.At in hot package "noc"`
		l.busy = flit
	})
}

// retryLater allocates a capture cell for d as well.
func (l *link) retryLater(d uint64) {
	l.engine.After(d, func() { // want `closure literal passed to Engine\.After in hot package "noc"`
		l.busy = 0
	})
}

// spinLoop hides a per-iteration closure behind a local variable: the
// continuation is rebuilt every time round, exactly like a literal.
func (l *link) spinLoop(d uint64) {
	var spin func()
	spin = func() {
		l.busy++
		l.engine.After(d, spin) // want `func variable passed to Engine\.After in hot package "noc"`
	}
	spin()
}

// forward schedules whatever closure its caller built.
func (l *link) forward(cycle uint64, deliver func()) {
	l.engine.At(cycle, deliver) // want `func variable passed to Engine\.At in hot package "noc"`
}

func (l *link) tick() { l.busy++ }

// tickLater allocates a method-value closure per call.
func (l *link) tickLater(d uint64) {
	l.engine.After(d, l.tick) // want `method value passed to Engine\.After in hot package "noc"`
}
