package mem

import "encoding/binary"

// VirtSpace is a process's view of memory: guest-virtual addresses
// translated by the process page table, then by the VM's EPT. This is the
// access path for simulated CPU code running inside a VM, so both
// page-table permissions and EPT permissions apply.
type VirtSpace struct {
	PT    *PageTable
	Space *GuestSpace
}

// Read copies len(buf) bytes from guest-virtual va.
func (v *VirtSpace) Read(va GuestVirt, buf []byte) error {
	return v.access(va, buf, PermRead)
}

// Write copies data to guest-virtual va.
func (v *VirtSpace) Write(va GuestVirt, data []byte) error {
	return v.access(va, data, PermWrite)
}

func (v *VirtSpace) access(va GuestVirt, buf []byte, perm Perm) error {
	_, err := v.Space.Phys.CopyPages(uint64(va), buf, perm == PermWrite, func(addr uint64) (SysPhys, error) {
		gpa, err := v.PT.Walk(GuestVirt(addr), perm)
		if err != nil {
			return 0, err
		}
		return v.Space.EPT.Translate(gpa, perm)
	})
	return err
}

// ReadU32 reads a little-endian 32-bit word at va.
func (v *VirtSpace) ReadU32(va GuestVirt) (uint32, error) {
	var b [4]byte
	if err := v.Read(va, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}
