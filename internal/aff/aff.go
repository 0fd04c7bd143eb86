// Package aff implements the paper's Address-Free Fragmentation service
// (Sections 3 and 5).
//
// The fragmenter accepts packets of up to 64 KiB, draws one RETRI
// identifier per packet from a core.Selector, and splits the packet into a
// "packet introduction" fragment (identifier, total length, checksum)
// followed by data fragments (identifier, byte offset, data) sized to the
// radio MTU. The reassembler collects fragments by identifier, delivers a
// packet when every byte is covered and the checksum verifies, and treats
// any inconsistency — conflicting introductions, overlapping fragments
// with different content, offsets beyond the announced length — as
// evidence of an identifier collision, discarding the transaction.
// "Packets that suffer from identifier collisions are never delivered
// because of checksum failures or other inconsistencies" (Section 5).
package aff

import (
	"errors"
	"fmt"
	"time"

	"retri/internal/checksum"
	"retri/internal/core"
	"retri/internal/frame"
)

// Config parameterizes a fragmenter/reassembler pair. Both ends of a
// deployment must agree on Space, Checksum and Instrument (they define the
// wire format).
type Config struct {
	// Space is the RETRI identifier pool.
	Space core.Space
	// MTU is the radio's maximum frame size in bytes (default 27).
	MTU int
	// Checksum selects the packet checksum algorithm (default Internet).
	Checksum checksum.Kind
	// Instrument adds the ground-truth trailer to every fragment
	// (Section 5.1 methodology).
	Instrument bool
	// ReassemblyTimeout evicts partial packets idle this long (default
	// 30s). Identifier reuse by later transactions depends on stale state
	// not lingering.
	ReassemblyTimeout time.Duration
	// MaxPartials caps the number of concurrently-held partial packets —
	// the reassembler's memory budget under fragment storms. When a
	// fragment for a new identifier would exceed the cap, the partial
	// with the oldest activity is deterministically evicted first and
	// counted (Stats.CapEvictions). Zero or negative means unbounded,
	// the historical behavior.
	MaxPartials int
	// AdaptiveWidth switches to the in-band-width wire format: every
	// fragment spends 5 extra header bits announcing its identifier's
	// width, letting each transaction pick any width up to Space.Bits()
	// (see Fragmenter.FragmentWidth) and letting one reassembler demux a
	// mix of widths. Both ends must agree on it — it changes the format.
	AdaptiveWidth bool
}

func (c Config) withDefaults() Config {
	if c.MTU == 0 {
		c.MTU = 27
	}
	if c.Checksum == 0 {
		c.Checksum = checksum.Internet
	}
	if c.ReassemblyTimeout == 0 {
		c.ReassemblyTimeout = 30 * time.Second
	}
	return c
}

// Codec returns the wire codec the configuration speaks: Space-wide
// identifiers, the trailer when Instrument is set, and the in-band width
// field when AdaptiveWidth is.
func (c Config) Codec() frame.Codec {
	return frame.Codec{IDBits: c.Space.Bits(), Instrument: c.Instrument, InBandWidth: c.AdaptiveWidth}
}

// WidthKey builds the composite reassembly key for an identifier heard at
// the given width. Identifiers drawn at different widths are distinct
// transactions even when their numeric values coincide — a 4-bit id 3 and
// a 9-bit id 3 must never merge — so adaptive-mode reassembly state is
// keyed by (width, id). It is core.WidthKey: the reassembler, the
// selectors' learned state and the retransmission avoid-set all share one
// keyspace contract.
func WidthKey(bits int, id uint64) uint64 { return core.WidthKey(bits, id) }

// SplitWidthKey undoes WidthKey, returning the width and raw identifier.
func SplitWidthKey(key uint64) (bits int, id uint64) { return core.SplitWidthKey(key) }

// FragmentKey is a decoded fragment's reassembly key. A fixed-width
// decode reports width 0 and keys by the raw identifier, exactly as
// before adaptive mode existed; an in-band decode keys by (width, id), so
// transactions at different widths never share state.
func FragmentKey(f *frame.Fragment) uint64 {
	if f.IDBits == 0 {
		return f.ID
	}
	return WidthKey(f.IDBits, f.ID)
}

// Transaction is a fragmented packet ready for transmission. In the
// paper's terms, transmitting all of these frames is one transaction.
type Transaction struct {
	// ID is the RETRI identifier drawn for this packet.
	ID uint64
	// Key is the transaction's reassembly key: ID in fixed-width mode,
	// the WidthKey(IDBits, ID) composite in adaptive mode.
	Key uint64
	// Fragments holds the introduction first, then data fragments in
	// offset order.
	Fragments []frame.Encoded
	// DataBits is the packet's payload size in bits (the "useful bits"
	// numerator of Equation 1).
	DataBits int
	// IDBits is the identifier width this transaction was encoded at. It
	// equals the space width except for adaptive-width transactions, which
	// may choose narrower.
	IDBits int
	// Truth is the instrumentation trailer stamped into every fragment,
	// nil when the config is uninstrumented. It exists for the measurement
	// harness (span tracing, oracle audits); protocol code must not use it.
	Truth *frame.Truth
	// Redraws counts identifier draws discarded by the retransmission
	// avoid-set before this identifier was accepted (always zero outside
	// the FragmentAvoiding paths). Measurement bookkeeping only.
	Redraws int
}

// Fragmenter splits packets into address-free fragments.
type Fragmenter struct {
	cfg   Config
	codec frame.Codec
	sel   core.Selector
	node  uint32
	seq   uint32
}

// NewFragmenter returns a fragmenter drawing identifiers from sel.
// truthNode is only used when cfg.Instrument is set, to stamp the
// ground-truth trailer.
func NewFragmenter(cfg Config, sel core.Selector, truthNode uint32) (*Fragmenter, error) {
	cfg = cfg.withDefaults()
	if sel == nil {
		return nil, errors.New("aff: nil selector")
	}
	if sel.Space() != cfg.Space {
		return nil, fmt.Errorf("aff: selector space %d bits != config space %d bits",
			sel.Space().Bits(), cfg.Space.Bits())
	}
	codec := cfg.Codec()
	if err := codec.CheckMTU(cfg.MTU); err != nil {
		return nil, err
	}
	return &Fragmenter{cfg: cfg, codec: codec, sel: sel, node: truthNode}, nil
}

// Config returns the effective configuration (defaults applied).
func (f *Fragmenter) Config() Config { return f.cfg }

// Selector returns the identifier selector in use.
func (f *Fragmenter) Selector() core.Selector { return f.sel }

// Fragment draws a fresh identifier and splits packet into fragments:
// one introduction plus ceil(len/payload) data fragments.
func (f *Fragmenter) Fragment(packet []byte) (Transaction, error) {
	if err := frame.CheckPacket(packet); err != nil {
		return Transaction{}, err
	}
	return f.fragmentWithID(f.codec, f.sel.Next(), packet)
}

// FragmentWidth is Fragment with a per-transaction identifier width, the
// adaptive-sizing hook (paper Section 4: width should track observed
// density, not network size). It requires AdaptiveWidth and accepts any
// width from 1 to Space.Bits(). The identifier is the selector's own
// width-aware draw (core.Selector.NextWidth), so every strategy keeps its
// selection discipline — listening avoidance, epoch collision-freedom,
// counter spacing — at the narrow width rather than degrading to a masked
// full-width draw.
func (f *Fragmenter) FragmentWidth(packet []byte, bits int) (Transaction, error) {
	if !f.cfg.AdaptiveWidth {
		return Transaction{}, errors.New("aff: FragmentWidth requires Config.AdaptiveWidth")
	}
	if bits < 1 || bits > f.cfg.Space.Bits() {
		return Transaction{}, fmt.Errorf("aff: width %d outside [1, %d]", bits, f.cfg.Space.Bits())
	}
	if err := frame.CheckPacket(packet); err != nil {
		return Transaction{}, err
	}
	codec := f.codec
	codec.IDBits = bits
	return f.fragmentWithID(codec, f.sel.NextWidth(bits), packet)
}

// FragmentAvoiding is Fragment with the paper's retransmission invariant
// enforced in code: a retransmitted packet must never reuse the previous
// attempt's identifier (Section 3 — a retry is a new transaction). The
// selector is redrawn until it yields something other than avoid, which
// terminates because redraws are independent (uniform/listening) or
// cycling (sequential); a one-identifier space cannot avoid anything and
// is used as-is.
//
// In fixed-width mode avoid is the previous attempt's raw identifier; in
// adaptive-width mode it is the previous attempt's WidthKey composite —
// identifiers only share the air with same-width identifiers, so that is
// the comparison that actually detects a reuse.
func (f *Fragmenter) FragmentAvoiding(packet []byte, avoid uint64) (Transaction, error) {
	return f.fragmentAvoidingAt(packet, f.cfg.Space.Bits(), avoid)
}

// FragmentWidthAvoiding is FragmentAvoiding at a per-transaction width:
// the retransmission path of an adaptive-width node. It requires
// AdaptiveWidth; avoid is the previous attempt's WidthKey composite (any
// out-of-keyspace sentinel avoids nothing). The avoidance comparison runs
// under (width, id): a retry at a different width never burns redraws on
// an identifier it does not share the air with, and always redraws one it
// does.
func (f *Fragmenter) FragmentWidthAvoiding(packet []byte, bits int, avoid uint64) (Transaction, error) {
	if !f.cfg.AdaptiveWidth {
		return Transaction{}, errors.New("aff: FragmentWidthAvoiding requires Config.AdaptiveWidth")
	}
	if bits < 1 || bits > f.cfg.Space.Bits() {
		return Transaction{}, fmt.Errorf("aff: width %d outside [1, %d]", bits, f.cfg.Space.Bits())
	}
	return f.fragmentAvoidingAt(packet, bits, avoid)
}

// fragmentAvoidingAt draws at the given width until the draw differs from
// avoid, comparing under the mode's reassembly keyspace: raw identifiers
// in fixed-width mode, WidthKey composites in adaptive mode.
func (f *Fragmenter) fragmentAvoidingAt(packet []byte, bits int, avoid uint64) (Transaction, error) {
	if err := frame.CheckPacket(packet); err != nil {
		return Transaction{}, err
	}
	id := f.sel.NextWidth(bits)
	redraws := 0
	if uint64(1)<<uint(bits) > 1 {
		for f.key(bits, id) == avoid {
			id = f.sel.NextWidth(bits)
			redraws++
		}
	}
	codec := f.codec
	codec.IDBits = bits
	tx, err := f.fragmentWithID(codec, id, packet)
	if err != nil {
		return Transaction{}, err
	}
	tx.Redraws = redraws
	return tx, nil
}

// fragmentWithID splits a validated packet under the given identifier,
// encoding with the given codec (the fragmenter's own, or a narrower-width
// variant built by FragmentWidth).
func (f *Fragmenter) fragmentWithID(codec frame.Codec, id uint64, packet []byte) (Transaction, error) {
	var truth *frame.Truth
	if f.cfg.Instrument {
		truth = &frame.Truth{Node: f.node, Seq: f.seq}
		f.seq++
	}
	frames, err := codec.Split(packet, f.cfg.MTU, id, 0, checksum.Sum(f.cfg.Checksum, packet), truth)
	if err != nil {
		return Transaction{}, fmt.Errorf("aff: %w", err)
	}
	return Transaction{
		ID:        id,
		Key:       f.key(codec.IDBits, id),
		Fragments: frames,
		DataBits:  8 * len(packet),
		IDBits:    codec.IDBits,
		Truth:     truth,
	}, nil
}

// key maps an identifier drawn at the given width into the reassembly
// keyspace: raw identifiers in fixed-width mode, WidthKey composites in
// adaptive mode.
func (f *Fragmenter) key(bits int, id uint64) uint64 {
	if f.cfg.AdaptiveWidth {
		return WidthKey(bits, id)
	}
	return id
}
