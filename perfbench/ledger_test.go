package main

import (
	"sync"
	"testing"
)

func TestLedgerFlagsPlantedMissAndRedelivery(t *testing.T) {
	const subs, msgs = 4, 3000 // spans more than one chunk
	l := newLedger(subs, msgs)
	for i := 0; i < msgs; i++ {
		if _, ok := l.add(int64(i)); !ok {
			t.Fatal("ledger full")
		}
	}
	var wg sync.WaitGroup
	for s := 0; s < subs; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := int64(0); i < msgs; i++ {
				if s == 2 && i == 1500 {
					continue // planted miss
				}
				l.deliver(i, s, i+10, 1)
			}
		}(s)
	}
	wg.Wait()
	l.deliver(2999, 1, 5000, 2) // planted re-delivery
	a := l.audit(0, msgs)
	if a.Expected != subs*msgs || a.Missing != 1 || a.Redelivered != 1 || a.Delivered != subs*msgs-1 {
		t.Fatalf("audit %+v", a)
	}
	if got := l.complete(0, msgs); got != msgs-1 {
		t.Fatalf("complete = %d, want %d", got, msgs-1)
	}
	if len(l.done) != msgs-1 {
		t.Fatalf("%d completion tokens, want %d", len(l.done), msgs-1)
	}
	// The re-delivery must not overwrite the first delivery's record.
	l.each(2999, 3000, func(_ int64, sub int, n uint32, at int64, hop uint16) {
		if sub == 1 && (n != 2 || at != 3009 || hop != 1) {
			t.Errorf("re-delivered pair: count %d at %d hop %d", n, at, hop)
		}
	})
}

func TestLedgerCountsStrays(t *testing.T) {
	l := newLedger(2, 1)
	l.add(0)
	l.deliver(5, 0, 1, 1)  // never published
	l.deliver(0, 9, 1, 1)  // no such subscriber
	l.deliver(-1, 0, 1, 1) // malformed index
	if got := l.stray.Load(); got != 3 {
		t.Fatalf("stray = %d, want 3", got)
	}
	if a := l.audit(0, 1); a.Missing != 2 || a.Redelivered != 0 {
		t.Fatalf("audit %+v", a)
	}
}

func TestFinalAuditFlagsLateRedelivery(t *testing.T) {
	const subs = 3
	c := &cluster{led: newLedger(subs, 4)}
	for i := int64(0); i < 2; i++ {
		c.led.add(i)
		for s := 0; s < subs; s++ {
			c.led.deliver(i, s, i+1, 1)
		}
	}
	c.led.deliver(0, 2, 9, 3) // re-delivered before the phase audit
	r := newResult()
	c.account(r, "phase", phase{from: 0, to: 2})
	if r.failed != 1 {
		t.Fatalf("phase audit: failed = %d, want 1", r.failed)
	}
	c.led.deliver(1, 0, 9, 4) // re-delivered after it
	c.finalAudit(r)
	if r.failed != 2 || len(r.failures) != 2 {
		t.Fatalf("final audit: failed = %d, failures %q; want 2 and 2", r.failed, r.failures)
	}
}
