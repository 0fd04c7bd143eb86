package node

import (
	"retri/internal/radio"
	"retri/internal/staticaddr"
)

// StaticDriver is the statically addressed baseline stack on one radio.
type StaticDriver struct {
	r     *radio.Radio
	frag  *staticaddr.Fragmenter
	reasm *staticaddr.Reassembler

	handler PacketHandler
	sent    int64
	sendErr sendErrs
}

var _ Driver = (*StaticDriver)(nil)

// NewStatic builds the static stack on r with the node's unique address.
// The radio's handler is taken over by the driver.
func NewStatic(r *radio.Radio, cfg staticaddr.Config, addr uint64) (*StaticDriver, error) {
	if r == nil {
		return nil, errNilRadio
	}
	frag, err := staticaddr.NewFragmenter(cfg, addr)
	if err != nil {
		return nil, err
	}
	d := &StaticDriver{r: r, frag: frag}
	d.reasm = staticaddr.NewReassembler(cfg, r.Now, func(p staticaddr.Packet) {
		if d.handler != nil {
			d.handler(p.Data)
		}
	})
	r.SetHandler(func(f radio.Frame) { d.reasm.Ingest(f.Payload) })
	return d, nil
}

// Reassembler exposes the reassembler for stats.
func (d *StaticDriver) Reassembler() *staticaddr.Reassembler { return d.reasm }

// Addr returns the node's static address.
func (d *StaticDriver) Addr() uint64 { return d.frag.Addr() }

// Radio returns the underlying radio.
func (d *StaticDriver) Radio() *radio.Radio { return d.r }

// SetPacketHandler installs the delivery callback.
func (d *StaticDriver) SetPacketHandler(h PacketHandler) { d.handler = h }

// PacketsSent reports packets accepted for transmission.
func (d *StaticDriver) PacketsSent() int64 { return d.sent }

// PacketsDelivered reports packets delivered by the reassembler.
func (d *StaticDriver) PacketsDelivered() int64 { return d.reasm.Stats().Delivered }

// SendPacket fragments p under (address, next sequence) and queues every
// fragment for broadcast.
func (d *StaticDriver) SendPacket(p []byte) error {
	tx, err := d.frag.Fragment(p)
	if err != nil {
		return err
	}
	for _, fr := range tx.Fragments {
		if err := d.r.Send(fr.Bytes, fr.Bits); err != nil {
			return d.sendErr.wrap(err)
		}
	}
	d.sent++
	return nil
}

// Crash models a node failure: radio down (transmit queue dropped),
// partial reassemblies wiped. The fragmenter's sequence counter survives,
// modelling the flash-backed sequence a statically addressed stack must
// keep anyway to avoid reusing (address, sequence) keys after a reboot.
func (d *StaticDriver) Crash() {
	d.r.SetUp(false)
	d.reasm.Reset()
}

// Restart powers the radio back up after a Crash.
func (d *StaticDriver) Restart() {
	d.r.SetUp(true)
}
