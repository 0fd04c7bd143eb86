package trace

import (
	"encoding/json"
	"io"
)

// jsonEvent is the JSONL wire form of an Event. Virtual time is exported
// as integer nanoseconds so downstream tools need no duration parsing.
type jsonEvent struct {
	AtNS int64  `json:"at_ns"`
	Kind string `json:"kind"`
	Node int    `json:"node"`
	Peer int    `json:"peer,omitempty"`
	Bits int    `json:"bits,omitempty"`
	Note string `json:"note,omitempty"`
}

// JSONWriter streams events to w as JSON Lines, one object per event, as
// they happen: the -trace-out export.
type JSONWriter struct {
	enc *json.Encoder
}

var _ Tracer = (*JSONWriter)(nil)

// NewJSONWriter returns a tracer encoding one JSON object per line to w.
// Callers that hand in a bufio.Writer are responsible for flushing it.
func NewJSONWriter(w io.Writer) *JSONWriter {
	return &JSONWriter{enc: json.NewEncoder(w)}
}

// Record encodes the event. Write errors are deliberately swallowed:
// tracing must never perturb a simulation.
func (jw *JSONWriter) Record(e Event) {
	_ = jw.enc.Encode(jsonEvent{
		AtNS: int64(e.At),
		Kind: e.Kind.String(),
		Node: e.Node,
		Peer: e.Peer,
		Bits: e.Bits,
		Note: e.Note,
	})
}

// Buffer retains events in arrival order for later replay — the per-trial
// capture half of the capture-then-merge pattern (see the package
// comment). Unlike Ring it keeps the stream's beginning: once Max events
// are held (unbounded when Max <= 0) later events are counted as dropped
// rather than evicting earlier ones, since a truncated trace should keep
// the setup phase it is usually read for.
type Buffer struct {
	// Max bounds retained events; <= 0 means unbounded.
	Max     int
	events  []Event
	dropped int64
}

var _ Tracer = (*Buffer)(nil)

// Record retains the event, or counts it as dropped when full.
func (b *Buffer) Record(e Event) {
	if b.Max > 0 && len(b.events) >= b.Max {
		b.dropped++
		return
	}
	b.events = append(b.events, e)
}

// Events returns the retained events in arrival order (not a copy).
func (b *Buffer) Events() []Event { return b.events }

// Len reports the number of retained events.
func (b *Buffer) Len() int { return len(b.events) }

// Dropped reports events discarded after the buffer filled.
func (b *Buffer) Dropped() int64 { return b.dropped }

// Replay feeds the retained events, in order, into next.
func (b *Buffer) Replay(next Tracer) {
	if next == nil {
		return
	}
	for _, e := range b.events {
		next.Record(e)
	}
}
