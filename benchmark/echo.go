package main

import (
	"bytes"
	"fmt"
	"hash/crc32"

	"paradice/internal/devfile"
	"paradice/internal/kernel"
	"paradice/internal/mem"
)

// echoPath is where the benchmark's own device sits in the driver VM.
const echoPath = "/dev/benchecho"

// echoCmd is the echo device's no-op ioctl for an n-byte argument (_IOWR:
// the argument is copied in, and copied back out inverted).
func echoCmd(n int) devfile.IoctlCmd { return devfile.IOWR('B', 0x01, uint32(n)) }

// echoDev is the benchmark-defined device behind the closed-loop workloads.
// Its ioctl hands the argument back bit-inverted, so every round trip is
// checkable; a write is CRC-logged; a read streams the next bytes of a
// seeded pattern. Only one task uses it at a time, which is what lets the
// scratch buffer be shared across operations.
type echoDev struct {
	kernel.BaseOps

	pattern []byte   // read source, cycled
	rpos    int      // offset of the next read in pattern
	crcs    []uint32 // CRC-32 of every write, in order
	scratch []byte
}

func newEchoDev(pattern []byte) *echoDev { return &echoDev{pattern: pattern} }

func (d *echoDev) buf(n int) []byte {
	if cap(d.scratch) < n {
		d.scratch = make([]byte, n)
	}
	return d.scratch[:n]
}

// Ioctl implements the no-op round trip.
func (d *echoDev) Ioctl(c *kernel.FopCtx, cmd devfile.IoctlCmd, arg mem.GuestVirt) (int32, error) {
	if cmd != echoCmd(int(cmd.Size())) {
		return 0, kernel.ENOTTY
	}
	b := d.buf(int(cmd.Size()))
	if err := kernel.CopyFromUser(c, arg, b); err != nil {
		return 0, err
	}
	for i := range b {
		b[i] = ^b[i]
	}
	return 0, kernel.CopyToUser(c, arg, b)
}

// Write consumes n bytes and logs their CRC-32.
func (d *echoDev) Write(c *kernel.FopCtx, src mem.GuestVirt, n int) (int, error) {
	b := d.buf(n)
	if err := kernel.CopyFromUser(c, src, b); err != nil {
		return 0, err
	}
	d.crcs = append(d.crcs, crc32.ChecksumIEEE(b))
	return n, nil
}

// Read hands out the next n bytes of the pattern.
func (d *echoDev) Read(c *kernel.FopCtx, dst mem.GuestVirt, n int) (int, error) {
	b := d.buf(n)
	d.rpos = cycle(b, d.pattern, d.rpos)
	return n, kernel.CopyToUser(c, dst, b)
}

// cycle fills dst from src starting at offset pos, wrapping around, and
// returns the offset after the last byte taken.
func cycle(dst, src []byte, pos int) int {
	for off := 0; off < len(dst); {
		k := copy(dst[off:], src[pos:])
		off += k
		pos = (pos + k) % len(src)
	}
	return pos
}

// checkCRCs compares the CRCs the device logged against the ones the guest
// expected, in order.
func checkCRCs(got, want []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("device logged %d writes, guest issued %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("write %d: device CRC %08x, guest CRC %08x", i, got[i], want[i])
		}
	}
	return nil
}

// checkBytes reports the first difference between what a guest buffer holds
// and what it should hold after an operation.
func checkBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	for i := 0; i < len(want) && i < len(got); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("%s: byte %d is %#02x, want %#02x", what, i, got[i], want[i])
		}
	}
	return fmt.Errorf("%s: length %d, want %d", what, len(got), len(want))
}
