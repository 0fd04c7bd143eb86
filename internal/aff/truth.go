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
	codec frame.Codec
	t     *reasm.Table[frame.Truth]
	// frag is the decode scratch: one fragment at a time, by value.
	frag frame.Fragment
}

// NewTruthReassembler returns a ground-truth reassembler. cfg.Instrument
// is forced on — the trailer is the key. The key is unique, so a
// disagreeing fragment can only be corruption and is ignored, and no
// MaxPartials cap applies: the ground truth holds every partial packet.
func NewTruthReassembler(cfg Config, now func() time.Duration) *TruthReassembler {
	cfg = cfg.withDefaults()
	cfg.Instrument = true
	return &TruthReassembler{
		codec: cfg.Codec(),
		t: reasm.New[frame.Truth](reasm.Config{
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

// Codec returns the wire codec the reassembler decodes with: the
// configuration's, instrumented.
func (r *TruthReassembler) Codec() frame.Codec { return r.codec }

// Ingest processes one received frame.
func (r *TruthReassembler) Ingest(frameBytes []byte) {
	var err error
	if r.frag, err = r.codec.Decode(frameBytes); err != nil {
		r.IngestDecoded(nil)
		return
	}
	r.IngestDecoded(&r.frag)
}

// IngestDecoded processes one received frame already decoded with Codec,
// by Reassembler.Decode for instance; fr is nil for a frame that did not
// decode. Its payload need only stay valid for the call.
func (r *TruthReassembler) IngestDecoded(fr *frame.Fragment) {
	r.t.Sweep()
	st := r.t.Stats()
	if fr == nil {
		st.Malformed++
		return
	}
	st.FragmentsIn++
	switch {
	case !fr.HasTruth:
		st.Malformed++
	case fr.Intro:
		r.t.Intro(fr.Truth, fr.TotalLen, fr.Checksum, &fr.Truth)
	default:
		r.t.Data(fr.Truth, fr.Offset, fr.Payload)
	}
}
