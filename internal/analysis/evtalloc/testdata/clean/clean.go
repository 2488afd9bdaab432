// Package noc is an evtalloc fixture: all the scheduling below is
// allocation-free in steady state (or waived) and must NOT be flagged.
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

type router struct {
	engine  *Engine
	deliver func() // prebound once at construction
}

const evFlit uint8 = 0

func (r *router) OnEvent(kind uint8, a uint64, p any) {}

// typedEvent is the sanctioned hot-path API: payload words, no closure.
func (r *router) typedEvent(cycle uint64, flit uint64) {
	r.engine.AtEvent(cycle, r, evFlit, flit, nil)
}

// preboundClosure reuses a closure built once at setup.
func (r *router) preboundClosure(cycle uint64) {
	r.engine.At(cycle, r.deliver)
}

// idle is a package-level func: scheduling it allocates nothing.
func idle() {}

func (r *router) packageFunc(d uint64) {
	r.engine.After(d, idle)
}

// waivedVariable forwards a caller's closure on a documented cold path.
func (r *router) waivedVariable(d uint64, done func()) {
	//lockiller:alloc-ok fires once per simulation at start
	r.engine.After(d, done)
}

// waivedColdPath documents why the allocation is acceptable.
func (r *router) waivedColdPath(d uint64) {
	//lockiller:alloc-ok fires once per simulation at teardown
	r.engine.After(d, func() {
		r.deliver()
	})
}
