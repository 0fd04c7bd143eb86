package staticaddr

import (
	"time"

	"retri/internal/frame"
	"retri/internal/reasm"
)

// Stats counts reassembler outcomes; see reasm.Stats. Conflicts stays
// zero: (source, sequence) keys cannot collide, which is precisely what
// the extra header bits buy.
type Stats = reasm.Stats

// Packet is a reassembled, verified packet.
type Packet struct {
	Src uint64
	Seq uint64
	// Data is lent for the delivery callback: the reassembler reuses the
	// buffer afterwards, so copy it to keep it.
	Data []byte
}

type key struct {
	src, seq uint64
}

// Reassembler rebuilds packets keyed by (source address, sequence). The
// key is unique, so a fragment that disagrees with held state can only be
// corruption and is ignored.
type Reassembler struct {
	codec frame.Codec
	t     *reasm.Table[key]
	// frag is the decode scratch: one fragment at a time, by value.
	frag frame.Fragment
}

// NewReassembler returns a reassembler calling deliver for each verified
// packet. A nil now disables timeout eviction.
func NewReassembler(cfg Config, now func() time.Duration, deliver func(Packet)) *Reassembler {
	cfg = cfg.withDefaults()
	r := &Reassembler{
		codec: cfg.codec(),
		t: reasm.New[key](reasm.Config{
			Checksum: cfg.Checksum,
			Timeout:  cfg.ReassemblyTimeout,
		}, now),
	}
	if deliver != nil {
		r.t.OnDeliver = func(k key, data []byte, _ *frame.Truth) {
			deliver(Packet{Src: k.src, Seq: k.seq, Data: data})
		}
	}
	return r
}

// Stats returns a snapshot of the counters.
func (r *Reassembler) Stats() Stats { return *r.t.Stats() }

// PendingCount reports partial packets held.
func (r *Reassembler) PendingCount() int { return r.t.Len() }

// Reset discards all partial-packet state, modelling a node crash.
// Counters belong to the measurement harness and survive.
func (r *Reassembler) Reset() { r.t.Reset() }

// Ingest processes one received frame.
func (r *Reassembler) Ingest(frameBytes []byte) {
	r.t.Sweep()
	var err error
	if r.frag, err = r.codec.Decode(frameBytes); err != nil {
		r.t.Stats().Malformed++
		return
	}
	r.t.Stats().FragmentsIn++
	fr := &r.frag
	k := key{src: fr.ID, seq: fr.Seq}
	if fr.Intro {
		r.t.Intro(k, fr.TotalLen, fr.Checksum, nil)
	} else {
		r.t.Data(k, fr.Offset, fr.Payload)
	}
}
