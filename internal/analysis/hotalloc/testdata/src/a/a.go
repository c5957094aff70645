// Package a is the hotalloc violation/allowed fixture.
package a

import (
	"fmt"
	"io"

	"livelock/internal/sim"
)

type node struct {
	eng *sim.Engine
	n   int
}

func tick(a, b any) {}

func (n *node) bump() {}

func schedule(nd *node, eng *sim.Engine) {
	eng.After(5, func() { nd.n++ }) // want `closure literal passed to Engine\.After`
	eng.At(10, nd.bump)             // want `bound method value passed to Engine\.At`

	eng.AfterCall(5, tick, nd, nil)                             // pooled path with pointer state: fine
	eng.AfterCall(5, func(a, b any) { a.(*node).n++ }, nd, nil) // capture-free literal: fine
	eng.AfterCall(5, func(a, b any) { nd.n++ }, nil, nil)       // want `callback literal captures nd`
	eng.AtCall(10, nd.bumpCall, nd, nil)                        // want `bound method value as the AtCall callback`
	eng.AtCall(10, tick, nd.n, nil)                             // want `AtCall argument boxes a int`
	eng.AfterCall(5, tick, nd, label{})                         // want `AfterCall argument boxes a a\.label`

	//lkvet:allow hotalloc cold setup path, scheduled once per trial
	eng.After(5, func() { nd.n++ })
}

type timerOwner struct {
	tm sim.Timer
	n  int
}

func bind(o *timerOwner, eng *sim.Engine) {
	o.tm.Init(tick, o, nil)                                   // package-level callback, pointer state: fine
	o.tm.Init(func(a, b any) { a.(*timerOwner).n++ }, o, nil) // capture-free literal: fine
	o.tm.Init(func(a, b any) { o.n++ }, nil, nil)             // want `callback literal captures o`
	o.tm.Init(o.fire, o, nil)                                 // want `bound method value as the Init callback`
	o.tm.Init(tick, o.n, nil)                                 // want `Init argument boxes a int`
	eng.ArmAfter(&o.tm, 5)
}

func (o *timerOwner) fire(a, b any) {}

type label struct{ id int }

func (n *node) bumpCall(a, b any) {}

func format(x int) string {
	return fmt.Sprintf("%d", x) // want `fmt\.Sprintf allocates`
}

// Stringer-style formatting methods are cold by convention.
func (n *node) String() string { return fmt.Sprintf("node %d", n.n) }

// Panic messages are off the hot path by definition.
func check(ok bool) {
	if !ok {
		panic(fmt.Sprintf("invariant violated"))
	}
}

// Exporters take an io.Writer and format output by contract.
func (n *node) WriteTo(w io.Writer) {
	fmt.Fprintf(w, "node %d\n", n.n)
}
