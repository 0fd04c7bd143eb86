package flood

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"retri/internal/core"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/xrand"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	space := core.MustSpace(8)
	m := Message{ID: 200, TTL: 7, Payload: []byte("event: door opened")}
	buf, bits, err := Encode(space, m)
	if err != nil {
		t.Fatal(err)
	}
	if bits <= 0 {
		t.Error("no bits")
	}
	got, err := Decode(space, buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != m.ID || got.TTL != m.TTL || !bytes.Equal(got.Payload, m.Payload) {
		t.Errorf("round trip: %+v -> %+v", m, got)
	}
}

func TestEncodeValidation(t *testing.T) {
	space := core.MustSpace(4)
	if _, _, err := Encode(space, Message{ID: 16}); !errors.Is(err, ErrBadMessage) {
		t.Error("oversize id accepted")
	}
	if _, _, err := Encode(space, Message{ID: 1, TTL: MaxTTL + 1}); !errors.Is(err, ErrBadTTL) {
		t.Error("oversize ttl accepted")
	}
	if _, err := Decode(space, nil); !errors.Is(err, ErrBadMessage) {
		t.Error("empty decode accepted")
	}
}

// line builds n routers on a line where only adjacent nodes hear each
// other — delivery to the far end requires relaying.
func line(t *testing.T, n int, cfg Config, seed uint64) (*sim.Engine, []*Router) {
	t.Helper()
	eng := sim.NewEngine()
	src := xrand.NewSource(seed).Child("flood", t.Name())
	disk := radio.NewUnitDisk(6)
	med := radio.NewMedium(eng, disk, radio.DefaultParams(), src.Stream("m"))
	routers := make([]*Router, n)
	for i := 0; i < n; i++ {
		disk.Place(radio.NodeID(i), radio.Point{X: float64(i) * 5})
		r := med.MustAttach(radio.NodeID(i))
		sel := core.NewUniformSelector(cfg.Space, src.Stream("sel", fmt.Sprint(i)))
		rt, err := NewRouter(cfg, eng, r, sel, src.Stream("rng", fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
		routers[i] = rt
	}
	return eng, routers
}

func TestMultiHopDelivery(t *testing.T) {
	cfg := Config{Space: core.MustSpace(12), TTL: 6}
	eng, routers := line(t, 5, cfg, 1)
	var got []byte
	routers[4].OnMessage(func(p []byte) { got = append([]byte{}, p...) })

	msg := []byte("four hops away")
	if err := routers[0].Originate(msg); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	if !bytes.Equal(got, msg) {
		t.Fatal("message did not cross the line")
	}
	// Every intermediate node forwarded exactly once.
	for i := 1; i <= 3; i++ {
		if f := routers[i].Stats().Forwarded; f != 1 {
			t.Errorf("router %d forwarded %d times, want 1", i, f)
		}
	}
	// The originator suppresses its own echo.
	if s := routers[0].Stats().Suppressed; s == 0 {
		t.Error("originator never suppressed its echo")
	}
	if d := routers[0].Stats().Delivered; d != 0 {
		t.Errorf("originator delivered its own message %d times", d)
	}
}

func TestTTLScopesTheFlood(t *testing.T) {
	// TTL 2 reaches node 0+1+2 hops; node 3 hears the TTL-0 copy... the
	// frame forwarded by node 2 carries TTL 0, so node 3 delivers but
	// does not forward; node 4 never hears anything.
	cfg := Config{Space: core.MustSpace(12), TTL: 2}
	eng, routers := line(t, 6, cfg, 2)
	reached := make([]bool, 6)
	for i, rt := range routers {
		i := i
		rt.OnMessage(func([]byte) { reached[i] = true })
	}
	if err := routers[0].Originate([]byte("scoped")); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	want := []bool{false, true, true, true, false, false}
	for i := range want {
		if reached[i] != want[i] {
			t.Errorf("node %d reached=%v, want %v (TTL scope)", i, reached[i], want[i])
		}
	}
	if routers[3].Stats().Expired != 1 {
		t.Errorf("node 3 Expired = %d, want 1", routers[3].Stats().Expired)
	}
}

func TestDuplicateSuppressionInDenseCell(t *testing.T) {
	// Full mesh of 5: everyone hears the original; each delivers once and
	// forwards once; all the echoes are suppressed.
	eng := sim.NewEngine()
	src := xrand.NewSource(3).Child("dense")
	med := radio.NewMedium(eng, radio.FullMesh{}, radio.DefaultParams(), src.Stream("m"))
	cfg := Config{Space: core.MustSpace(12), TTL: 3}
	routers := make([]*Router, 5)
	delivered := make([]int, 5)
	for i := range routers {
		r := med.MustAttach(radio.NodeID(i))
		sel := core.NewUniformSelector(cfg.Space, src.Stream("sel", fmt.Sprint(i)))
		rt, err := NewRouter(cfg, eng, r, sel, src.Stream("rng", fmt.Sprint(i)))
		if err != nil {
			t.Fatal(err)
		}
		i := i
		rt.OnMessage(func([]byte) { delivered[i]++ })
		routers[i] = rt
	}
	if err := routers[0].Originate([]byte("dense")); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for i := 1; i < 5; i++ {
		if delivered[i] != 1 {
			t.Errorf("node %d delivered %d times, want exactly 1", i, delivered[i])
		}
	}
}

// TestIdentifierCollisionSuppressesDistinctMessage is the RETRI loss mode
// in this application: two messages sharing an identifier within the
// window — the second is mistaken for a duplicate and dies.
func TestIdentifierCollisionSuppressesDistinctMessage(t *testing.T) {
	eng := sim.NewEngine()
	src := xrand.NewSource(4).Child("coll")
	med := radio.NewMedium(eng, radio.FullMesh{}, radio.DefaultParams(), src.Stream("m"))
	cfg := Config{Space: core.MustSpace(4), TTL: 1}
	mk := func(id radio.NodeID, sel core.Selector) *Router {
		r := med.MustAttach(id)
		rt, err := NewRouter(cfg, eng, r, sel, src.Stream("rng", fmt.Sprint(id)))
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	// Both senders pinned to identifier 3.
	a := mk(1, core.NewSequentialSelector(cfg.Space, 3))
	b := mk(2, core.NewSequentialSelector(cfg.Space, 3))
	sink := mk(0, core.NewSequentialSelector(cfg.Space, 0))
	got := 0
	sink.OnMessage(func([]byte) { got++ })

	if err := a.Originate([]byte("first")); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := b.Originate([]byte("second, same id")); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	if got != 1 {
		t.Errorf("sink delivered %d messages, want 1 (collision suppression)", got)
	}
	if sink.Stats().Suppressed == 0 {
		t.Error("no suppression recorded")
	}
}

// TestWindowLapseAllowsReuse: the same identifier works again once the
// dedup window has passed — temporal locality.
func TestWindowLapseAllowsReuse(t *testing.T) {
	eng := sim.NewEngine()
	src := xrand.NewSource(5).Child("reuse")
	med := radio.NewMedium(eng, radio.FullMesh{}, radio.DefaultParams(), src.Stream("m"))
	cfg := Config{Space: core.MustSpace(4), TTL: 1, DedupWindow: time.Second}
	a, err := NewRouter(cfg, eng, med.MustAttach(1),
		core.NewSequentialSelector(cfg.Space, 9), src.Stream("ra"))
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewRouter(cfg, eng, med.MustAttach(0),
		core.NewSequentialSelector(cfg.Space, 0), src.Stream("rs"))
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	sink.OnMessage(func([]byte) { got++ })

	// Reset the sender's selector phase so both messages use id 9.
	if err := a.Originate([]byte("one")); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	eng.RunUntil(eng.Now() + 5*time.Second) // window lapses
	a2, err := NewRouter(cfg, eng, a.Radio(), core.NewSequentialSelector(cfg.Space, 9), src.Stream("ra2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := a2.Originate([]byte("two")); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got != 2 {
		t.Errorf("delivered %d, want 2 (temporal reuse after window)", got)
	}
}

func TestDedupWindowSweepsOncePerSpan(t *testing.T) {
	w := newWindow[int](time.Second)
	// Within one span mark never sweeps, yet a lapsed key is already dead
	// to lookups.
	w.mark(1, 0)
	w.mark(2, 900*time.Millisecond)
	if !w.has(1, time.Second) || w.has(1, time.Second+1) {
		t.Error("lookup disagrees with the key's age")
	}
	w.mark(3, time.Second+1) // first sweep: the lapsed key 1 went at lookup
	// Key 2 lapsed at 1.9s, but the next sweep is not due until a span
	// after the first, so it is still held.
	w.mark(4, 1950*time.Millisecond)
	if len(w.seen) != 3 {
		t.Errorf("window holds %d keys before the next sweep, want 3", len(w.seen))
	}
	// That sweep drops 2 but keeps 3 and 4, which are inside the span.
	w.mark(5, 2*time.Second+1)
	if len(w.seen) != 3 || w.has(2, 2*time.Second+1) || !w.has(4, 2*time.Second+1) {
		t.Errorf("after the second sweep the window holds %d keys, want 3, 4 and 5", len(w.seen))
	}
}

func TestOriginateValidation(t *testing.T) {
	cfg := Config{Space: core.MustSpace(12), TTL: 3}
	_, routers := line(t, 2, cfg, 6)
	if err := routers[0].Originate(make([]byte, 100)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize payload err = %v", err)
	}
}

func TestNewRouterValidation(t *testing.T) {
	eng := sim.NewEngine()
	src := xrand.NewSource(7).Child("val")
	med := radio.NewMedium(eng, radio.FullMesh{}, radio.DefaultParams(), src.Stream("m"))
	r := med.MustAttach(1)
	space := core.MustSpace(8)
	sel := core.NewUniformSelector(space, src.Stream("s"))
	if _, err := NewRouter(Config{Space: space}, nil, r, sel, src.Stream("r")); err == nil {
		t.Error("nil engine accepted")
	}
	wrong := core.NewUniformSelector(core.MustSpace(4), src.Stream("w"))
	if _, err := NewRouter(Config{Space: space}, eng, r, wrong, src.Stream("r")); err == nil {
		t.Error("space mismatch accepted")
	}
	if _, err := NewRouter(Config{Space: space, TTL: 99}, eng, r, sel, src.Stream("r")); !errors.Is(err, ErrBadTTL) {
		t.Error("bad ttl accepted")
	}
}

func TestMalformedFrameCounted(t *testing.T) {
	eng := sim.NewEngine()
	src := xrand.NewSource(8).Child("mal")
	med := radio.NewMedium(eng, radio.FullMesh{}, radio.DefaultParams(), src.Stream("m"))
	space := core.MustSpace(12)
	rt, err := NewRouter(Config{Space: space}, eng, med.MustAttach(0),
		core.NewUniformSelector(space, src.Stream("s")), src.Stream("r"))
	if err != nil {
		t.Fatal(err)
	}
	// A raw 1-byte frame cannot carry a 12-bit id + 4-bit ttl.
	other := med.MustAttach(1)
	if err := other.Send([]byte{0xFF}, 0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if rt.Stats().Malformed != 1 {
		t.Errorf("Malformed = %d, want 1", rt.Stats().Malformed)
	}
}
