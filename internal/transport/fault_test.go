package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"ringcast/internal/wire"
)

func faultPair(t *testing.T) (*FaultInjector, *FaultInjector, *InMemNetwork) {
	t.Helper()
	net := NewInMemNetwork()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	return WrapFaults(a, 1), WrapFaults(b, 2), net
}

func testFrame(from string) *wire.Frame {
	return &wire.Frame{Kind: wire.KindGossip, From: 1, FromAddr: from,
		Msg: &wire.Message{ID: wire.MsgID{Origin: 1, Seq: 7}, Body: []byte("x")}}
}

func TestFaultInjectorPassThrough(t *testing.T) {
	fa, fb, _ := faultPair(t)
	defer fa.Close()
	defer fb.Close()
	var got atomic.Int64
	fb.SetHandler(func(remote string, f *wire.Frame) { got.Add(1) })
	for i := 0; i < 10; i++ {
		if err := fa.Send("b", testFrame("a")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return got.Load() == 10 })
	if fa.InjectedDrops() != 0 {
		t.Errorf("injected drops on a clean link: %d", fa.InjectedDrops())
	}
	if fa.Stats().FramesSent != 10 {
		t.Errorf("frames sent %d, want 10", fa.Stats().FramesSent)
	}
}

func TestFaultInjectorBlockCountsInjectedDrops(t *testing.T) {
	fa, fb, _ := faultPair(t)
	defer fa.Close()
	defer fb.Close()
	var got atomic.Int64
	fb.SetHandler(func(remote string, f *wire.Frame) { got.Add(1) })

	fa.Block("b")
	for i := 0; i < 5; i++ {
		if err := fa.Send("b", testFrame("a")); err != nil {
			t.Fatalf("partitioned send must black-hole, not error: %v", err)
		}
	}
	if drops := fa.InjectedDrops(); drops != 5 {
		t.Errorf("injected drops %d, want 5", drops)
	}
	if s := fa.Stats(); s.Drops != 5 {
		t.Errorf("Stats().Drops %d, want 5 (PR 3 stats plumbing must see injected drops)", s.Drops)
	}
	if s := fa.Stats(); s.FramesSent != 0 {
		t.Errorf("blocked frames reached the wire: %d", s.FramesSent)
	}

	fa.Unblock("b")
	if err := fa.Send("b", testFrame("a")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() == 1 })
	if drops := fa.InjectedDrops(); drops != 5 {
		t.Errorf("unblocked send counted as drop: %d", drops)
	}
}

func TestFaultInjectorLoss(t *testing.T) {
	fa, fb, _ := faultPair(t)
	defer fa.Close()
	defer fb.Close()
	var got atomic.Int64
	fb.SetHandler(func(remote string, f *wire.Frame) { got.Add(1) })

	fa.SetLoss(1)
	for i := 0; i < 20; i++ {
		if err := fa.Send("b", testFrame("a")); err != nil {
			t.Fatal(err)
		}
	}
	if drops := fa.InjectedDrops(); drops != 20 {
		t.Errorf("full loss dropped %d/20", drops)
	}
	fa.SetLoss(0)
	if err := fa.Send("b", testFrame("a")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() == 1 })
}

func TestFaultInjectorHealAll(t *testing.T) {
	fa, fb, _ := faultPair(t)
	defer fa.Close()
	defer fb.Close()
	var got atomic.Int64
	fb.SetHandler(func(remote string, f *wire.Frame) { got.Add(1) })
	fa.Block("b", "c", "d")
	fa.HealAll()
	if err := fa.Send("b", testFrame("a")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() == 1 })
	if fa.InjectedDrops() != 0 {
		t.Errorf("healed link still dropping: %d", fa.InjectedDrops())
	}
}

func TestFaultInjectorClosed(t *testing.T) {
	fa, fb, _ := faultPair(t)
	defer fb.Close()
	if err := fa.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fa.Send("b", testFrame("a")); err != ErrClosed {
		t.Errorf("send on closed injector: %v, want ErrClosed", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
