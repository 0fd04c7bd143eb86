package aff

import (
	"time"

	"retri/internal/frame"
	"retri/internal/reasm"
)

// TruthReassembler rebuilds packets keyed by the instrumentation trailer's
// guaranteed-unique (node, sequence) pair instead of the AFF identifier.
//
// This is the measurement side of the Section 5.1 experiment: "By examining
// both the AFF identifier and the guaranteed unique node identifier of
// received fragments, the receiver's driver is able to determine how many
// packets would have been lost due to AFF identifier collisions if the
// unique ID had not been present." Running a TruthReassembler and a
// Reassembler over the same fragment stream gives the two packet counts
// whose ratio is the measured collision rate.
type TruthReassembler struct {
	codec frame.AFFCodec
	t     *reasm.Table[frame.Truth, *frame.Data]
}

// NewTruthReassembler returns a ground-truth reassembler. cfg.Instrument
// is forced on — the trailer is the key. The key is unique, so a
// disagreeing fragment can only be corruption and is ignored, and no
// MaxPartials cap applies: the ground truth holds every partial packet.
func NewTruthReassembler(cfg Config, now func() time.Duration) *TruthReassembler {
	cfg = cfg.withDefaults()
	cfg.Instrument = true
	return &TruthReassembler{
		codec: cfg.codec(),
		t: reasm.New[frame.Truth, *frame.Data](reasm.Config{
			Checksum: cfg.Checksum,
			Timeout:  cfg.ReassemblyTimeout,
		}, now),
	}
}

// Stats returns a snapshot of counters. Conflicts stays zero by
// construction: the truth key is genuinely unique.
func (r *TruthReassembler) Stats() Stats { return *r.t.Stats() }

// PendingCount reports partial packets held.
func (r *TruthReassembler) PendingCount() int { return r.t.Len() }

// Ingest processes one received frame.
func (r *TruthReassembler) Ingest(frameBytes []byte) {
	r.t.Sweep()
	decoded, err := r.codec.Decode(frameBytes)
	st := r.t.Stats()
	if err != nil {
		st.Malformed++
		return
	}
	st.FragmentsIn++
	switch fr := decoded.(type) {
	case *frame.Intro:
		if fr.Truth == nil {
			st.Malformed++
			return
		}
		r.t.Intro(*fr.Truth, fr.TotalLen, fr.Checksum, fr.Truth)
	case *frame.Data:
		if fr.Truth == nil {
			st.Malformed++
			return
		}
		r.t.Data(*fr.Truth, fr)
	}
}
