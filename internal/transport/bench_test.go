package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"ringcast/internal/ident"
	"ringcast/internal/view"
	"ringcast/internal/wire"
)

func benchFrame() *wire.Frame {
	f := &wire.Frame{Kind: wire.KindShuffleRequest, From: 1, FromAddr: "a", Seq: 1}
	for i := 0; i < 8; i++ {
		f.Entries = append(f.Entries, view.Entry{Node: ident.ID(i + 2), Addr: "10.0.0.9:7000", Age: uint32(i)})
	}
	return f
}

// BenchmarkInMemSend measures one in-memory send including the codec round
// trip (the fixed cost every simulated frame pays).
func BenchmarkInMemSend(b *testing.B) {
	net := NewInMemNetwork()
	a, err := net.Endpoint("a")
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	dst, err := net.Endpoint("b")
	if err != nil {
		b.Fatal(err)
	}
	defer dst.Close()
	dst.SetHandler(func(string, *wire.Frame) {})
	f := benchFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send("b", f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPSend measures framed sends over a loopback TCP connection.
// Sends are async (queue + dedicated writer); under pressure the overflow
// policy may shed gossip frames, so completion is frames received plus
// frames dropped, with the drop count reported as a metric.
func BenchmarkTCPSend(b *testing.B) {
	src, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	dst, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer dst.Close()
	var received atomic.Int64
	dst.SetHandler(func(string, *wire.Frame) {
		received.Add(1)
	})
	f := benchFrame()
	f.FromAddr = src.Addr()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send(dst.Addr(), f); err != nil {
			b.Fatal(err)
		}
	}
	for received.Load()+src.Stats().Drops < int64(b.N) {
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(src.Stats().Drops), "drops")
}
