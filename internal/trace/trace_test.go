package trace

import (
	"strings"
	"testing"
	"time"
)

func ev(k Kind, node int) Event {
	return Event{At: time.Second, Kind: k, Node: node, Peer: 9, Bits: 100}
}

func TestKindString(t *testing.T) {
	tests := map[Kind]string{
		FrameSent:       "sent",
		FrameDelivered:  "delivered",
		FrameCollided:   "collided",
		FrameHalfDuplex: "half-duplex",
		FrameRandomLoss: "random-loss",
		FrameNotHeard:   "not-heard",
		Custom:          "custom",
		Kind(99):        "kind(99)",
	}
	for k, want := range tests {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestEventString(t *testing.T) {
	sent := Event{At: time.Second, Kind: FrameSent, Node: 3, Bits: 256}
	if s := sent.String(); !strings.Contains(s, "node 3") || !strings.Contains(s, "256 bits") {
		t.Errorf("sent String() = %q", s)
	}
	rx := Event{At: time.Second, Kind: FrameDelivered, Node: 2, Peer: 3, Bits: 256}
	if s := rx.String(); !strings.Contains(s, "from 3") {
		t.Errorf("delivered String() = %q", s)
	}
	custom := Event{Kind: Custom, Node: 1, Note: "conflict id=7"}
	if s := custom.String(); !strings.Contains(s, "conflict id=7") {
		t.Errorf("custom String() = %q", s)
	}
}

func TestRingBelowCapacity(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 3; i++ {
		r.Record(ev(FrameSent, i))
	}
	events := r.Events()
	if len(events) != 3 || r.Len() != 3 {
		t.Fatalf("Len = %d, events = %d, want 3", r.Len(), len(events))
	}
	for i, e := range events {
		if e.Node != i {
			t.Errorf("events out of order: %v", events)
		}
	}
	if r.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", r.Dropped())
	}
}

func TestRingWrapsOldestFirst(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(ev(FrameSent, i))
	}
	events := r.Events()
	if len(events) != 4 {
		t.Fatalf("retained %d, want 4", len(events))
	}
	for i, e := range events {
		if e.Node != 6+i {
			t.Fatalf("wrong retention window: %v", events)
		}
	}
	if r.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", r.Dropped())
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing(0)
	r.Record(ev(FrameSent, 1))
	r.Record(ev(FrameSent, 2))
	if r.Len() != 1 || r.Events()[0].Node != 2 {
		t.Error("capacity-0 ring should clamp to 1 and keep the latest")
	}
}

func TestRingDump(t *testing.T) {
	r := NewRing(4)
	r.Record(ev(FrameSent, 1))
	r.Record(ev(FrameDelivered, 2))
	var sb strings.Builder
	if err := r.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "\n") != 2 {
		t.Errorf("Dump produced %q", out)
	}
}

func TestLineWriter(t *testing.T) {
	var sb strings.Builder
	lw := NewLineWriter(&sb)
	lw.Record(ev(FrameCollided, 5))
	if !strings.Contains(sb.String(), "collided") {
		t.Errorf("LineWriter output %q", sb.String())
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Record(ev(FrameSent, 1))
	c.Record(ev(FrameSent, 2))
	c.Record(ev(FrameCollided, 3))
	if c.Count(FrameSent) != 2 || c.Count(FrameCollided) != 1 || c.Count(FrameDelivered) != 0 {
		t.Errorf("counts wrong: sent=%d collided=%d", c.Count(FrameSent), c.Count(FrameCollided))
	}
}

func TestMultiFansOut(t *testing.T) {
	a, b := NewCounter(), NewCounter()
	m := Multi(a, nil, b)
	m.Record(ev(FrameSent, 1))
	if a.Count(FrameSent) != 1 || b.Count(FrameSent) != 1 {
		t.Error("Multi did not reach all tracers")
	}
}
