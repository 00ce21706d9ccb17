package main

import (
	"testing"

	"ringcast/internal/ident"
	"ringcast/internal/wire"
)

func TestSelfTimeSyntheticTree(t *testing.T) {
	// handle [0,100) with children select [10,30), send [40,90) and a
	// delivery callback [92,97); send has its own child [50,60). A second
	// root publish [200,260). A second buffer holds one sim span.
	spans := []span{
		{name: spanHandle, start: 0, end: 100, parent: -1},
		{name: spanSelect, start: 10, end: 30, parent: 0},
		{name: spanSend, start: 40, end: 90, parent: 0},
		{name: "inner", start: 50, end: 60, parent: 2},
		{name: spanDeliver, start: 92, end: 97, parent: 0},
		{name: spanPublish, start: 200, end: 260, parent: -1},
		{name: spanHandle, start: 300, end: 0, parent: -1}, // still open
	}
	dur, self := selfTimes([][]span{spans, {{name: spanCycle, start: 5, end: 45, parent: -1}}})
	want := map[string][2]float64{
		spanHandle:  {100, 25}, // 100 - 20 - 50 - 5
		spanSelect:  {20, 20},
		spanSend:    {50, 40}, // 50 - 10
		"inner":     {10, 10},
		spanPublish: {60, 60},
		spanCycle:   {40, 40},
	}
	for name, w := range want {
		if len(dur[name]) != 1 || dur[name][0] != w[0] || self[name][0] != w[1] {
			t.Errorf("%s: dur %v self %v, want %v", name, dur[name], self[name], w)
		}
	}
}

func TestTracerLinksChildrenByMessageAndSender(t *testing.T) {
	tr := newTracer(2)
	tr.on.Store(true)
	m := wire.MsgID{Origin: 7, Seq: 3}
	sender := ident.ID(99)
	h := tr.open(spanHandle, 1, m, sender)
	sel := tr.child(spanSelect, 1, zeroID, sender, 0) // found by sender
	tr.end(1, sel)
	send := tr.child(spanSend, 1, m, ident.Nil, 0) // found by message
	tr.end(1, send)
	dup := tr.open(spanHandle, 1, m, ident.ID(5)) // concurrent duplicate
	tr.close(1, dup, ident.ID(5))
	tr.close(1, h, sender)
	orphan := tr.child(spanSend, 1, m, ident.Nil, 0) // parent closed
	other := tr.child(spanSend, 0, m, ident.Nil, 0)  // other peer
	bufs := tr.finish()
	b := bufs[1]
	if orphan != -1 || other != -1 {
		t.Fatalf("spans without an open parent were recorded: %d %d", orphan, other)
	}
	if b[sel].parent != h || b[send].parent != h || b[dup].parent != -1 {
		t.Fatalf("parents: %+v", b)
	}
	if b[sel].msg != m {
		t.Fatalf("select did not inherit the MsgID: %v", b[sel].msg)
	}
	if len(tr.bufs[1].byMsg) != 0 || len(tr.bufs[1].byFrom) != 0 {
		t.Fatalf("open spans left registered")
	}
	if tr.open(spanHandle, 0, m, sender) != -1 || tr.root(spanCycle) != -1 {
		t.Fatalf("span recorded after finish")
	}
}
