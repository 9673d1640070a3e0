package usrlib

import (
	"encoding/binary"

	"paradice/internal/devfile"
	"paradice/internal/driver/netmapdrv"
	"paradice/internal/kernel"
	"paradice/internal/mem"
	"paradice/internal/sim"
)

// NetmapCtx is the netmap user API: the mmap'ed ring and buffer area plus
// the poll-per-batch sync discipline of pkt-gen.
type NetmapCtx struct {
	T  *kernel.Task
	P  *kernel.Process
	FD int

	Base     mem.GuestVirt // mapped area: ring page + buffers
	NumSlots int
	BufSize  int
	head     uint32
}

// Ring page field offsets (mirroring the driver's layout).
const (
	nmOffHead   = 0
	nmOffTail   = 4
	nmOffRxHead = 16
	nmOffRxTail = 20
	nmSlotTab   = 64
)

// CostFillPerPkt is the user-space cost to construct one packet in a netmap
// buffer (header templating + slot update), per the netmap paper's ~100 ns
// per-packet generator cost.
const CostFillPerPkt = 100 * sim.Nanosecond

// OpenNetmap opens /dev/netmap, registers the interface, and maps the
// shared area.
func OpenNetmap(t *kernel.Task, path string) (*NetmapCtx, error) {
	fd, err := t.Open(path, devfile.ORdWr)
	if err != nil {
		return nil, err
	}
	arg, err := t.Proc.Alloc(16)
	if err != nil {
		return nil, err
	}
	if _, err := t.Ioctl(fd, netmapdrv.NIOCREGIF, arg); err != nil {
		return nil, err
	}
	out := make([]byte, 16)
	if err := t.Proc.Mem.Read(arg, out); err != nil {
		return nil, err
	}
	numSlots := int(binary.LittleEndian.Uint32(out[0:]))
	bufSize := int(binary.LittleEndian.Uint32(out[4:]))
	memPages := binary.LittleEndian.Uint32(out[8:])
	base, err := t.Mmap(fd, uint64(memPages)*mem.PageSize, 0)
	if err != nil {
		return nil, err
	}
	return &NetmapCtx{T: t, P: t.Proc, FD: fd, Base: base, NumSlots: numSlots, BufSize: bufSize}, nil
}

// Close unmaps and closes.
func (n *NetmapCtx) Close() error { return n.T.Close(n.FD) }

// bufVA returns the user address of slot i's packet buffer.
func (n *NetmapCtx) bufVA(slot int) mem.GuestVirt {
	return n.Base + mem.PageSize + mem.GuestVirt(slot*n.BufSize)
}

// Tail reads the ring tail the driver last published.
func (n *NetmapCtx) Tail() (uint32, error) {
	var b [4]byte
	if err := n.P.UserRead(n.T, n.Base+nmOffTail, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// Free returns how many slots the application may fill right now without
// overwriting packets the hardware has not transmitted.
func (n *NetmapCtx) Free() (int, error) {
	tail, err := n.Tail()
	if err != nil {
		return 0, err
	}
	return (int(tail) + n.NumSlots - int(n.head) - 1) % n.NumSlots, nil
}

// Drain syncs until the hardware has transmitted everything outstanding, so
// a rate measurement does not count packets still sitting in the ring.
func (n *NetmapCtx) Drain() error {
	for {
		free, err := n.Free()
		if err != nil {
			return err
		}
		if free == n.NumSlots-1 {
			return nil
		}
		if err := n.Sync(); err != nil {
			return err
		}
		// Let the wire make progress before re-checking.
		n.T.Sim().Sleep(10 * sim.Microsecond)
	}
}

// FillBatch writes batch packets of pktLen bytes into consecutive ring
// slots and advances the ring head — the generator's inner loop.
func (n *NetmapCtx) FillBatch(batch, pktLen int, payload byte) error {
	pkt := make([]byte, pktLen)
	for i := range pkt {
		pkt[i] = payload + byte(i)
	}
	for i := 0; i < batch; i++ {
		slot := int(n.head)
		if err := n.P.UserWrite(n.T, n.bufVA(slot), pkt); err != nil {
			return err
		}
		var lenB [4]byte
		binary.LittleEndian.PutUint32(lenB[:], uint32(pktLen))
		if err := n.P.UserWrite(n.T, n.Base+nmSlotTab+mem.GuestVirt(slot*4), lenB[:]); err != nil {
			return err
		}
		n.T.Compute("fill", CostFillPerPkt)
		n.head = (n.head + 1) % uint32(n.NumSlots)
	}
	var headB [4]byte
	binary.LittleEndian.PutUint32(headB[:], n.head)
	return n.P.UserWrite(n.T, n.Base+nmOffHead, headB[:])
}

// Sync issues the per-batch poll that hands the filled slots to hardware,
// blocking while the ring is out of space.
func (n *NetmapCtx) Sync() error {
	for {
		mask, err := n.T.Poll(n.FD, devfile.PollOut, -1)
		if err != nil {
			return err
		}
		if mask&devfile.PollOut != 0 {
			return nil
		}
	}
}

// --- receive side ---

// rxBufVA returns the user address of RX slot i's packet buffer (the RX
// buffer area follows the TX buffers).
func (n *NetmapCtx) rxBufVA(slot int) mem.GuestVirt {
	return n.Base + mem.PageSize + mem.GuestVirt(n.NumSlots*n.BufSize) +
		mem.GuestVirt(slot*n.BufSize)
}

// RecvBatch waits for received frames (one poll, like pkt-gen's receive
// side), reads every pending frame, and advances the RX head. Returns the
// frames' payloads.
func (n *NetmapCtx) RecvBatch() ([][]byte, error) {
	if _, err := n.T.Poll(n.FD, devfile.PollIn, -1); err != nil {
		return nil, err
	}
	var hb, tb [4]byte
	if err := n.P.UserRead(n.T, n.Base+nmOffRxHead, hb[:]); err != nil {
		return nil, err
	}
	if err := n.P.UserRead(n.T, n.Base+nmOffRxTail, tb[:]); err != nil {
		return nil, err
	}
	head := binary.LittleEndian.Uint32(hb[:])
	tail := binary.LittleEndian.Uint32(tb[:])
	var out [][]byte
	for head != tail {
		var lb [4]byte
		if err := n.P.UserRead(n.T, n.Base+nmSlotTab+mem.GuestVirt(n.NumSlots*4)+mem.GuestVirt(head*4), lb[:]); err != nil {
			return nil, err
		}
		length := int(binary.LittleEndian.Uint32(lb[:]))
		if length < 0 || length > n.BufSize {
			length = 0
		}
		frame := make([]byte, length)
		if err := n.P.UserRead(n.T, n.rxBufVA(int(head)), frame); err != nil {
			return nil, err
		}
		out = append(out, frame)
		head = (head + 1) % uint32(n.NumSlots)
	}
	binary.LittleEndian.PutUint32(hb[:], head)
	if err := n.P.UserWrite(n.T, n.Base+nmOffRxHead, hb[:]); err != nil {
		return nil, err
	}
	// A follow-up poll lets the driver repost the consumed buffers.
	if _, err := n.T.Poll(n.FD, devfile.PollIn|devfile.PollOut, 0); err != nil {
		return nil, err
	}
	return out, nil
}
