package dynaddr

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"retri/internal/frame"
	"retri/internal/radio"
	"retri/internal/sim"
	"retri/internal/staticaddr"
)

// ErrNoAddress is returned by SendPacket before an address is acquired —
// the cost in *availability* that dynamic allocation imposes and AFF does
// not.
var ErrNoAddress = errors.New("dynaddr: no address assigned yet")

// Relay is the multi-hop forwarding service SetRelay plugs in
// (flood.Relay satisfies it): WrapOutgoing envelopes outgoing frames
// with the hop budget, in storage its next call may reuse, UnwrapIncoming
// dedups and rebroadcasts received copies, Reset wipes the dedup table on
// a crash.
type Relay interface {
	WrapOutgoing(payload []byte, bits int) ([]byte, int)
	UnwrapIncoming(f radio.Frame) (inner []byte, deliver bool)
	Reset()
}

// Node is a complete dynamically addressed stack: the claim-listen-defend
// allocator plus the short-address fragmentation driver, demultiplexed
// over one radio.
type Node struct {
	eng   *sim.Engine
	r     *radio.Radio
	alloc *Allocator
	codec codec
	relay Relay

	fragCfg staticaddr.Config
	frag    *staticaddr.Fragmenter
	reasm   *staticaddr.Reassembler

	handler func(data []byte)
	sent    int64

	// wrapped and unwrapped are scratch for one data frame with and
	// without the demux prefix: the outgoing frame Send copies, and the
	// incoming one being reassembled.
	wrapped, unwrapped []byte
}

// NewNode builds a dynamically addressed node. Data packets can be sent
// only after the allocator acquires an address; call Start to begin
// claiming.
func NewNode(eng *sim.Engine, r *radio.Radio, cfg Config, rng *rand.Rand) (*Node, error) {
	if r == nil {
		return nil, errors.New("dynaddr: nil radio")
	}
	cfg = cfg.withDefaults()
	n := &Node{
		eng:   eng,
		r:     r,
		codec: codec{addrBits: cfg.AddrBits},
		fragCfg: staticaddr.Config{
			AddrBits: cfg.AddrBits,
			// Data frames carry the demux prefix, so the fragmenter must
			// leave one byte of headroom.
			MTU:               r.MTU() - 1,
			ReassemblyTimeout: 30 * time.Second,
		},
	}
	n.alloc = NewAllocator(eng, r, cfg, rng, n.onAssigned)
	n.reasm = staticaddr.NewReassembler(n.fragCfg, r.Now, n.deliver)
	r.SetHandler(n.onFrame)
	return n, nil
}

func (n *Node) deliver(p staticaddr.Packet) {
	if n.handler != nil {
		n.handler(p.Data)
	}
}

// SetRelay extends the stack across multiple hops: control and data
// frames are wrapped in the relay's hop-scope envelope, and received
// frames pass through its dedup/rebroadcast path before demultiplexing.
// Must be called before Start and before any traffic — the envelope byte
// shrinks the data MTU, so the fragmenter geometry changes.
func (n *Node) SetRelay(rl Relay) {
	n.relay = rl
	n.fragCfg.MTU--
	n.alloc.SetSend(func(p []byte, bits int) error {
		wp, wb := rl.WrapOutgoing(p, bits)
		return n.r.Send(wp, wb)
	})
}

// Start begins address acquisition.
func (n *Node) Start() { n.alloc.Start() }

// Allocator exposes the allocation state machine.
func (n *Node) Allocator() *Allocator { return n.alloc }

// Radio returns the underlying radio.
func (n *Node) Radio() *radio.Radio { return n.r }

// SetPacketHandler installs the delivery callback.
func (n *Node) SetPacketHandler(h func(data []byte)) { n.handler = h }

// PacketsSent reports data packets accepted for transmission.
func (n *Node) PacketsSent() int64 { return n.sent }

// PacketsDelivered reports data packets reassembled at this node.
func (n *Node) PacketsDelivered() int64 { return n.reasm.Stats().Delivered }

// Crash models a node failure: the radio goes down (dropping its
// transmit queue) and all RAM state is wiped — the owned address, any
// claim in progress, the heard-address table, partial reassemblies, and
// the relay's duplicate-suppression table.
func (n *Node) Crash() {
	n.r.SetUp(false)
	n.alloc.Reset()
	n.frag = nil
	n.reasm.Reset()
	if n.relay != nil {
		n.relay.Reset()
	}
}

// Restart powers the radio back up and begins re-claiming an address
// from scratch. Data stays unsendable (ErrNoAddress) until the claim
// phase completes — the availability gap, and the re-allocation traffic
// it triggers, are exactly the churn costs RETRI avoids by construction.
func (n *Node) Restart() {
	n.r.SetUp(true)
	n.alloc.Start()
}

// Reassembler exposes the data reassembler for stats.
func (n *Node) Reassembler() *staticaddr.Reassembler { return n.reasm }

// SendPacket fragments and queues a data packet under the node's acquired
// short address. It fails with ErrNoAddress until allocation completes.
func (n *Node) SendPacket(p []byte) error {
	if n.frag == nil {
		return ErrNoAddress
	}
	tx, err := n.frag.Fragment(p)
	if err != nil {
		return err
	}
	for _, fr := range tx.Fragments {
		var bits int
		n.wrapped, bits = frame.WrapBit(n.wrapped[:0], demuxData, fr.Bytes, fr.Bits)
		payload := n.wrapped
		if n.relay != nil {
			payload, bits = n.relay.WrapOutgoing(payload, bits)
		}
		if err := n.r.Send(payload, bits); err != nil {
			return fmt.Errorf("dynaddr: send fragment: %w", err)
		}
	}
	n.sent++
	return nil
}

// onAssigned (re)builds the data fragmenter under the new address.
func (n *Node) onAssigned(addr uint64) {
	frag, err := staticaddr.NewFragmenter(n.fragCfg, addr)
	if err != nil {
		// Configuration error; leave the node data-mute rather than
		// panic inside a simulation event.
		n.frag = nil
		return
	}
	n.frag = frag
}

// onFrame demultiplexes received frames between the allocator and the
// data reassembler.
func (n *Node) onFrame(f radio.Frame) {
	payload := f.Payload
	if n.relay != nil {
		inner, deliver := n.relay.UnwrapIncoming(f)
		if !deliver {
			return
		}
		payload = inner
	}
	ctrl, data, isControl, err := n.codec.decode(n.unwrapped[:0], payload)
	if err != nil {
		return
	}
	if isControl {
		n.alloc.HandleControl(ctrl)
		return
	}
	n.unwrapped = data
	n.reasm.Ingest(data)
}
