package ioctlan

import (
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"paradice/internal/devfile"
	"paradice/internal/grant"
	"paradice/internal/mem"
)

// mapReader serves user memory from a map of page-less flat bytes.
type mapReader map[mem.GuestVirt][]byte

func (m mapReader) ReadUser(va mem.GuestVirt, buf []byte) error {
	for base, data := range m {
		if va >= base && uint64(va)+uint64(len(buf)) <= uint64(base)+uint64(len(data)) {
			copy(buf, data[va-base:])
			return nil
		}
	}
	return grantDeny(va)
}

func grantDeny(va mem.GuestVirt) error {
	return &grant.DeniedError{VA: va}
}

// simpleProg: copy a struct in, poke the device, copy results out — the
// common macro-shaped command, with driver noise for the slicer to remove.
func simpleProg() *Prog {
	cmd := devfile.IOWR('t', 1, 32)
	return &Prog{
		Cmd:  cmd,
		Name: "SIMPLE",
		Body: []Stmt{
			DriverWork{What: "lock device mutex"},
			CopyFromUser{Dst: "req", Src: Arg{}, Size: CmdSize{}},
			DriverWork{What: "ring doorbell"},
			DriverWork{What: "wait for fence"},
			CopyToUser{Dst: Arg{}, Size: CmdSize{}},
			DriverWork{What: "unlock device mutex"},
		},
	}
}

// nestedProg models the Radeon CS pattern: a header struct holds a count
// and a user pointer to an array of chunk descriptors; each descriptor
// holds a pointer and length for a further copy. Two levels of nesting.
func nestedProg() *Prog {
	cmd := devfile.IOWR('t', 2, 24)
	return &Prog{
		Cmd:  cmd,
		Name: "NESTED_CS",
		Body: []Stmt{
			DriverWork{What: "validate GEM handles"},
			CopyFromUser{Dst: "hdr", Src: Arg{}, Size: Const(24)},
			Let{Name: "nchunks", Val: LoadField{Buf: "hdr", Off: 0, Size: 4}},
			Let{Name: "chunkp", Val: LoadField{Buf: "hdr", Off: 8, Size: 8}},
			DriverWork{What: "reserve ring space"},
			For{Var: "i", Count: Local("nchunks"), Body: []Stmt{
				CopyFromUser{
					Dst:  "chunk",
					Src:  Bin{Op: '+', L: Local("chunkp"), R: Bin{Op: '*', L: Local("i"), R: Const(16)}},
					Size: Const(16),
				},
				CopyFromUser{
					Dst:  "payload",
					Src:  LoadField{Buf: "chunk", Off: 0, Size: 8},
					Size: LoadField{Buf: "chunk", Off: 8, Size: 4},
				},
				DriverWork{What: "emit chunk to ring"},
			}},
			DriverWork{What: "kick command processor"},
		},
	}
}

func TestSliceRemovesDriverWork(t *testing.T) {
	p := simpleProg()
	sl := Slice(p.Body)
	if Lines(sl) != 2 {
		t.Fatalf("slice has %d lines, want 2 (the two copies)", Lines(sl))
	}
	for _, s := range sl {
		if _, bad := s.(DriverWork); bad {
			t.Fatal("driver work survived slicing")
		}
	}
}

func TestSliceKeepsDependencies(t *testing.T) {
	p := nestedProg()
	sl := Slice(p.Body)
	// Must keep: hdr copy, two Lets, the For with two copies inside.
	if Lines(sl) != 6 {
		t.Fatalf("slice has %d lines, want 6:\n%v", Lines(sl), sl)
	}
}

func TestAnalyzeSimpleIsStatic(t *testing.T) {
	spec, err := Analyze(simpleProg())
	if err != nil {
		t.Fatal(err)
	}
	if spec.Dynamic {
		t.Fatal("simple command classified dynamic")
	}
	if len(spec.Static) != 2 {
		t.Fatalf("static ops = %d, want 2", len(spec.Static))
	}
	ops, err := spec.Ops(nil, 0x4000_0000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ops[0].Kind != grant.KindCopyFrom || ops[0].VA != 0x4000_0000 || ops[0].Len != 32 {
		t.Fatalf("op0 = %+v", ops[0])
	}
	if ops[1].Kind != grant.KindCopyTo || ops[1].VA != 0x4000_0000 || ops[1].Len != 32 {
		t.Fatalf("op1 = %+v", ops[1])
	}
}

func TestAnalyzeNestedIsDynamic(t *testing.T) {
	spec, err := Analyze(nestedProg())
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Dynamic {
		t.Fatal("nested copies classified static")
	}
	if _, err := spec.Ops(nil, 0x1000, nil); err == nil {
		t.Fatal("dynamic Ops without a reader should fail")
	}
}

func TestJITResolvesNestedCopies(t *testing.T) {
	spec, err := Analyze(nestedProg())
	if err != nil {
		t.Fatal(err)
	}
	// Build user memory: header at 0x1000 with 2 chunks at 0x2000; chunk
	// payloads at 0x3000 (40 bytes) and 0x5000 (100 bytes).
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], 2)
	binary.LittleEndian.PutUint64(hdr[8:], 0x2000)
	chunks := make([]byte, 32)
	binary.LittleEndian.PutUint64(chunks[0:], 0x3000)
	binary.LittleEndian.PutUint32(chunks[8:], 40)
	binary.LittleEndian.PutUint64(chunks[16:], 0x5000)
	binary.LittleEndian.PutUint32(chunks[24:], 100)
	r := mapReader{0x1000: hdr, 0x2000: chunks}
	ops, err := spec.Ops(nil, 0x1000, r)
	if err != nil {
		t.Fatal(err)
	}
	want := []grant.Op{
		{Kind: grant.KindCopyFrom, VA: 0x1000, Len: 24},
		{Kind: grant.KindCopyFrom, VA: 0x2000, Len: 16},
		{Kind: grant.KindCopyFrom, VA: 0x3000, Len: 40},
		{Kind: grant.KindCopyFrom, VA: 0x2010, Len: 16},
		{Kind: grant.KindCopyFrom, VA: 0x5000, Len: 100},
	}
	if len(ops) != len(want) {
		t.Fatalf("ops = %+v, want %d entries", ops, len(want))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("op%d = %+v, want %+v", i, ops[i], want[i])
		}
	}
}

func TestMacroOps(t *testing.T) {
	ops := MacroOps(nil, devfile.IOWR('x', 1, 48), 0x7000)
	if len(ops) != 2 || ops[0].Kind != grant.KindCopyFrom || ops[1].Kind != grant.KindCopyTo {
		t.Fatalf("IOWR macro ops = %+v", ops)
	}
	if ops[0].VA != 0x7000 || ops[0].Len != 48 {
		t.Fatalf("macro op = %+v", ops[0])
	}
	if got := MacroOps(nil, devfile.IO('x', 2), 0x7000); len(got) != 0 {
		t.Fatalf("_IO macro ops = %+v, want none", got)
	}
	if got := MacroOps(nil, devfile.IOR('x', 3, 8), 0x7000); len(got) != 1 || got[0].Kind != grant.KindCopyTo {
		t.Fatalf("_IOR macro ops = %+v", got)
	}
}

func TestConstantLoopUnrollsStatically(t *testing.T) {
	p := &Prog{
		Cmd:  devfile.IOW('t', 3, 8),
		Name: "FIXED_ARRAY",
		Body: []Stmt{
			For{Var: "i", Count: Const(3), Body: []Stmt{
				CopyFromUser{
					Dst:  "slot",
					Src:  Bin{Op: '+', L: Arg{}, R: Bin{Op: '*', L: Local("i"), R: Const(64)}},
					Size: Const(64),
				},
			}},
		},
	}
	spec, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Dynamic {
		t.Fatal("constant loop classified dynamic")
	}
	if len(spec.Static) != 3 {
		t.Fatalf("static ops = %d, want 3", len(spec.Static))
	}
	ops, _ := spec.Ops(nil, 0x1000, nil)
	for i, op := range ops {
		if op.VA != mem.GuestVirt(0x1000+i*64) || op.Len != 64 {
			t.Fatalf("op%d = %+v", i, op)
		}
	}
}

func TestIfWithArgIndependentCondition(t *testing.T) {
	p := &Prog{
		Cmd:  devfile.IOW('t', 4, 16),
		Name: "BRANCHY",
		Body: []Stmt{
			Let{Name: "mode", Val: Const(1)},
			If{Cond: Local("mode"),
				Then: []Stmt{CopyFromUser{Dst: "a", Src: Arg{}, Size: Const(16)}},
				Else: []Stmt{CopyFromUser{Dst: "b", Src: Arg{}, Size: Const(8)}}},
		},
	}
	spec, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Dynamic || len(spec.Static) != 1 || spec.Static[0].Len != 16 {
		t.Fatalf("spec = %+v", spec)
	}
}

func TestIfOnUserDataIsDynamic(t *testing.T) {
	p := &Prog{
		Cmd:  devfile.IOW('t', 5, 16),
		Name: "DATA_BRANCH",
		Body: []Stmt{
			CopyFromUser{Dst: "req", Src: Arg{}, Size: Const(16)},
			If{Cond: LoadField{Buf: "req", Off: 0, Size: 4},
				Then: []Stmt{CopyFromUser{Dst: "x", Src: LoadField{Buf: "req", Off: 8, Size: 8}, Size: Const(32)}}},
		},
	}
	spec, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Dynamic {
		t.Fatal("user-data branch classified static")
	}
	// JIT with condition false: only the header copy.
	hdr := make([]byte, 16)
	ops, err := spec.Ops(nil, 0x1000, mapReader{0x1000: hdr})
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 {
		t.Fatalf("ops = %+v, want 1", ops)
	}
	// Condition true: the nested copy appears.
	binary.LittleEndian.PutUint32(hdr[0:], 1)
	binary.LittleEndian.PutUint64(hdr[8:], 0x9000)
	ops, err = spec.Ops(nil, 0x1000, mapReader{0x1000: hdr})
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops[1].VA != 0x9000 || ops[1].Len != 32 {
		t.Fatalf("ops = %+v", ops)
	}
}

// Property: JIT execution's first recorded op for the nested program always
// covers the header read at the argument address, for any argument.
func TestPropertyHeaderOpCoversArg(t *testing.T) {
	spec, err := Analyze(nestedProg())
	if err != nil {
		t.Fatal(err)
	}
	f := func(argRaw uint32, n uint8) bool {
		arg := mem.GuestVirt(argRaw)
		hdr := make([]byte, 24)
		binary.LittleEndian.PutUint32(hdr[0:], uint32(n%4))
		binary.LittleEndian.PutUint64(hdr[8:], uint64(arg)+0x100)
		chunks := make([]byte, 16*4)
		r := mapReader{arg: hdr, arg + 0x100: chunks}
		ops, err := spec.Ops(nil, uint64(arg), r)
		if err != nil {
			return false
		}
		if len(ops) < 1 || ops[0].VA != arg || ops[0].Len != 24 {
			return false
		}
		// 1 header op + 2 per chunk.
		return len(ops) == 1+2*int(n%4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinesCountsRecursively(t *testing.T) {
	body := []Stmt{
		Let{Name: "a", Val: Const(1)},
		For{Var: "i", Count: Const(2), Body: []Stmt{
			If{Cond: Local("a"), Then: []Stmt{DriverWork{What: "x"}}},
		}},
	}
	if Lines(body) != 4 {
		t.Fatalf("Lines = %d, want 4", Lines(body))
	}
}

func TestUndefinedLocalError(t *testing.T) {
	p := &Prog{Cmd: devfile.IOW('t', 6, 8), Name: "BROKEN",
		Body: []Stmt{CopyFromUser{Dst: "x", Src: Local("nowhere"), Size: Const(8)}}}
	if _, err := Analyze(p); err == nil {
		t.Fatal("undefined local accepted")
	}
}

func TestFormatRendersSlices(t *testing.T) {
	spec, err := Analyze(nestedProg())
	if err != nil {
		t.Fatal(err)
	}
	lines := Format(spec.Slice)
	if len(lines) < 4 {
		t.Fatalf("formatted slice too short: %v", lines)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"copy_from_user(hdr", "for i < nchunks", "hdr[0:4]"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("formatted slice missing %q:\n%s", want, joined)
		}
	}
	// Nested statements are indented.
	indented := false
	for _, l := range lines {
		if strings.HasPrefix(l, "  ") {
			indented = true
		}
	}
	if !indented {
		t.Fatal("no indentation in nested slice")
	}
}
