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

var (
	// ErrPacketTooLarge is returned for packets beyond the 64 KiB limit.
	ErrPacketTooLarge = errors.New("staticaddr: packet exceeds 64KiB limit")
	// ErrEmptyPacket is returned for zero-length packets.
	ErrEmptyPacket = errors.New("staticaddr: empty packet")
	// ErrMTUTooSmall is returned when no payload fits in a data fragment.
	ErrMTUTooSmall = errors.New("staticaddr: MTU too small for fragment header")
	// ErrBadAddress is returned when an address does not fit AddrBits.
	ErrBadAddress = errors.New("staticaddr: address out of range")
)

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
		c.SeqBits = frame.DefaultSeqBits
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

func (c Config) codec() frame.StaticCodec {
	return frame.StaticCodec{AddrBits: c.AddrBits, SeqBits: c.SeqBits}
}

// Fragment is one encoded radio frame.
type Fragment struct {
	Bytes []byte
	Bits  int
}

// Transaction is a fragmented packet ready for transmission.
type Transaction struct {
	// Src and Seq form the guaranteed-unique packet key.
	Src uint64
	Seq uint64
	// Fragments holds the introduction first, then data in offset order.
	Fragments []Fragment
	// DataBits is the packet payload size in bits.
	DataBits int
}

// TotalBits sums meaningful bits across fragments.
func (t Transaction) TotalBits() int {
	sum := 0
	for _, f := range t.Fragments {
		sum += f.Bits
	}
	return sum
}

// Fragmenter splits packets into statically addressed fragments.
type Fragmenter struct {
	cfg   Config
	codec frame.StaticCodec
	addr  uint64
	seq   uint64
}

// NewFragmenter returns a fragmenter for the node with the given static
// address.
func NewFragmenter(cfg Config, addr uint64) (*Fragmenter, error) {
	cfg = cfg.withDefaults()
	if cfg.AddrBits < 1 || cfg.AddrBits > 64 {
		return nil, fmt.Errorf("staticaddr: address width %d out of range", cfg.AddrBits)
	}
	if cfg.SeqBits < 1 || cfg.SeqBits > 32 {
		return nil, fmt.Errorf("staticaddr: sequence width %d out of range", cfg.SeqBits)
	}
	if cfg.AddrBits < 64 && addr >= 1<<uint(cfg.AddrBits) {
		return nil, fmt.Errorf("%w: %d needs more than %d bits", ErrBadAddress, addr, cfg.AddrBits)
	}
	codec := cfg.codec()
	if codec.MaxPayload(cfg.MTU) <= 0 {
		return nil, fmt.Errorf("%w: %d bytes", ErrMTUTooSmall, cfg.MTU)
	}
	if (codec.IntroBits()+7)/8 > cfg.MTU {
		return nil, fmt.Errorf("%w: intro needs %d bytes", ErrMTUTooSmall, (codec.IntroBits()+7)/8)
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
	if len(packet) == 0 {
		return Transaction{}, ErrEmptyPacket
	}
	if len(packet) > frame.MaxPacketLen {
		return Transaction{}, fmt.Errorf("%w: %d bytes", ErrPacketTooLarge, len(packet))
	}
	seq := f.seq
	f.seq = (f.seq + 1) % (1 << uint(f.cfg.SeqBits))

	maxPayload := f.codec.MaxPayload(f.cfg.MTU)
	nData := (len(packet) + maxPayload - 1) / maxPayload
	tx := Transaction{
		Src:       f.addr,
		Seq:       seq,
		Fragments: make([]Fragment, 0, nData+1),
		DataBits:  8 * len(packet),
	}

	introBytes, introBits, err := f.codec.EncodeIntro(frame.StaticIntro{
		Src:      f.addr,
		Seq:      seq,
		TotalLen: len(packet),
		Checksum: checksum.Sum(f.cfg.Checksum, packet),
	})
	if err != nil {
		return Transaction{}, fmt.Errorf("staticaddr: encode intro: %w", err)
	}
	tx.Fragments = append(tx.Fragments, Fragment{Bytes: introBytes, Bits: introBits})

	for off := 0; off < len(packet); off += maxPayload {
		end := off + maxPayload
		if end > len(packet) {
			end = len(packet)
		}
		dataBytes, dataBits, err := f.codec.EncodeData(frame.StaticData{
			Src:     f.addr,
			Seq:     seq,
			Offset:  off,
			Payload: packet[off:end],
		})
		if err != nil {
			return Transaction{}, fmt.Errorf("staticaddr: encode data at %d: %w", off, err)
		}
		tx.Fragments = append(tx.Fragments, Fragment{Bytes: dataBytes, Bits: dataBits})
	}
	return tx, nil
}
