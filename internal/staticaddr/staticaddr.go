// Package staticaddr implements the baseline the paper compares against:
// fragmentation keyed by a statically allocated, guaranteed-unique node
// address plus a per-sender sequence number (Section 2.1's IP-style
// (source address, identification) tuple).
//
// Identifier collisions are impossible by construction, so every
// transaction succeeds (Equation 2) — but every fragment carries the full
// address, and in a sensor network "globally unique addresses would need to
// be very large ... compared to the typical few bits of data attached to
// them" (Section 2.3). The address widths the paper discusses: 16 bits
// (optimal allocation for tens of thousands of nodes), 32 bits
// (conservative), 48 bits (Ethernet-style decentralized allocation).
package staticaddr

import (
	"errors"
	"fmt"
	"time"

	"retri/internal/checksum"
	"retri/internal/frame"
)

// ErrBadAddress is returned when an address does not fit AddrBits.
var ErrBadAddress = errors.New("staticaddr: address out of range")

// defaultSeqBits matches IP's 16-bit identification field.
const defaultSeqBits = 16

// Config parameterizes the static fragmentation service.
type Config struct {
	// AddrBits is the static address width (16, 32 or 48 in the paper's
	// comparisons).
	AddrBits int
	// SeqBits is the per-sender sequence width, 1 to 32 bits (default
	// 16, as in IP).
	SeqBits int
	// MTU is the radio frame size in bytes (default 27).
	MTU int
	// Checksum selects the packet checksum (default Internet).
	Checksum checksum.Kind
	// ReassemblyTimeout evicts stale partial packets (default 30s).
	ReassemblyTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.SeqBits == 0 {
		c.SeqBits = defaultSeqBits
	}
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

// codec is the static format: the address travels in the identifier
// field, followed by the sequence number.
func (c Config) codec() frame.Codec {
	return frame.Codec{IDBits: c.AddrBits, SeqBits: c.SeqBits}
}

// Transaction is a fragmented packet ready for transmission. Its
// Fragments point into the fragmenter's storage, which its next call
// reuses.
type Transaction struct {
	// Src and Seq form the guaranteed-unique packet key.
	Src uint64
	Seq uint64
	// Fragments holds the introduction first, then data in offset order.
	Fragments []frame.Encoded
	// DataBits is the packet payload size in bits.
	DataBits int
}

// Fragmenter splits packets into statically addressed fragments.
type Fragmenter struct {
	cfg   Config
	codec frame.Codec
	addr  uint64
	seq   uint64
	// frames backs the Transaction the last call returned.
	frames frame.Frames
}

// NewFragmenter returns a fragmenter for the node with the given static
// address.
func NewFragmenter(cfg Config, addr uint64) (*Fragmenter, error) {
	cfg = cfg.withDefaults()
	codec := cfg.codec()
	if err := codec.CheckMTU(cfg.MTU); err != nil {
		return nil, err
	}
	if cfg.AddrBits < 64 && addr >= 1<<uint(cfg.AddrBits) {
		return nil, fmt.Errorf("%w: %d needs more than %d bits", ErrBadAddress, addr, cfg.AddrBits)
	}
	return &Fragmenter{cfg: cfg, codec: codec, addr: addr}, nil
}

// Config returns the effective configuration.
func (f *Fragmenter) Config() Config { return f.cfg }

// Addr returns the node's static address.
func (f *Fragmenter) Addr() uint64 { return f.addr }

// Fragment splits packet into one introduction plus data fragments under
// the next sequence number.
func (f *Fragmenter) Fragment(packet []byte) (Transaction, error) {
	if err := frame.CheckPacket(packet); err != nil {
		return Transaction{}, err
	}
	seq := f.seq
	f.seq = (f.seq + 1) % (1 << uint(f.cfg.SeqBits))
	frames, err := f.codec.Split(&f.frames, packet, f.cfg.MTU, f.addr, seq, checksum.Sum(f.cfg.Checksum, packet), nil)
	if err != nil {
		return Transaction{}, fmt.Errorf("staticaddr: %w", err)
	}
	return Transaction{Src: f.addr, Seq: seq, Fragments: frames, DataBits: 8 * len(packet)}, nil
}
