package ioctlan

import (
	"encoding/binary"
	"errors"
	"fmt"

	"paradice/internal/devfile"
	"paradice/internal/grant"
	"paradice/internal/mem"
)

// ErrDynamic marks a command whose memory operations depend on user data
// (nested copies) and therefore cannot be resolved offline.
var ErrDynamic = errors.New("ioctlan: memory operations depend on user data")

// StaticOp is one offline-resolved memory operation: the user address is
// ACoef*arg + Off (ACoef is 0 or 1 — addresses are either absolute or
// arg-relative), with a constant length.
type StaticOp struct {
	Kind grant.Kind
	// ACoef multiplies the ioctl pointer argument into the address.
	ACoef uint64
	// Off is the constant address term.
	Off uint64
	// Len is the operation length in bytes.
	Len uint64
}

// Materialize produces the grant operation for a concrete argument value.
func (s StaticOp) Materialize(arg uint64) grant.Op {
	return grant.Op{Kind: s.Kind, VA: mem.GuestVirt(s.ACoef*arg + s.Off), Len: s.Len}
}

// CmdSpec is the analyzer's result for one ioctl command: the slice of the
// handler that computes its memory operations, plus either offline-resolved
// static entries or the marker that the slice must run just-in-time.
type CmdSpec struct {
	Cmd     devfile.IoctlCmd
	Name    string
	Slice   []Stmt
	Static  []StaticOp // valid when !Dynamic
	Dynamic bool       // nested copies: execute Slice at runtime

	// OriginalLines and ExtractedLines report the slicing ratio, the
	// paper's "~760 lines of extracted code" metric.
	OriginalLines  int
	ExtractedLines int
}

// Analyze slices a handler and attempts offline execution, mirroring the
// paper's pipeline: slice -> execute without the device -> static entries,
// falling back to just-in-time execution for nested copies.
func Analyze(p *Prog) (*CmdSpec, error) {
	sl := Slice(p.Body)
	spec := &CmdSpec{
		Cmd:            p.Cmd,
		Name:           p.Name,
		Slice:          sl,
		OriginalLines:  Lines(p.Body),
		ExtractedLines: Lines(sl),
	}
	ops, err := execute(sl, symval{a: 1}, uint64(p.Cmd.Size()), nil)
	switch {
	case err == nil:
		for _, op := range ops {
			spec.Static = append(spec.Static, op.static)
		}
	case errors.Is(err, ErrDynamic):
		spec.Dynamic = true
	default:
		return nil, fmt.Errorf("ioctlan: %s: %w", p.Name, err)
	}
	return spec, nil
}

// UserReader resolves user-memory reads during just-in-time execution. The
// CVD frontend implements it over the issuing process's address space.
type UserReader interface {
	ReadUser(va mem.GuestVirt, buf []byte) error
}

// Ops appends the legitimate memory operations for one invocation to dst
// and returns the extended slice: materialized static entries for
// offline-resolved commands, or a just-in-time execution of the extracted
// slice for nested-copy commands.
func (cs *CmdSpec) Ops(dst []grant.Op, arg uint64, r UserReader) ([]grant.Op, error) {
	if !cs.Dynamic {
		for _, s := range cs.Static {
			dst = append(dst, s.Materialize(arg))
		}
		return dst, nil
	}
	if r == nil {
		return dst, ErrDynamic
	}
	recs, err := execute(cs.Slice, symval{b: arg}, uint64(cs.Cmd.Size()), r)
	if err != nil {
		return dst, err
	}
	for _, rec := range recs {
		dst = append(dst, rec.static.Materialize(0)) // already concrete: ACoef folded
	}
	return dst, nil
}

// MacroOps appends the memory operations derived purely from the command
// number to dst, the paper's first technique (§4.1): the OS-provided macros
// embed the payload size and copy direction, and the untyped pointer holds
// the address.
func MacroOps(dst []grant.Op, cmd devfile.IoctlCmd, arg uint64) []grant.Op {
	if cmd.Size() == 0 {
		return dst
	}
	if cmd.Dir()&devfile.DirWrite != 0 {
		dst = append(dst, grant.Op{Kind: grant.KindCopyFrom, VA: mem.GuestVirt(arg), Len: uint64(cmd.Size())})
	}
	if cmd.Dir()&devfile.DirRead != 0 {
		dst = append(dst, grant.Op{Kind: grant.KindCopyTo, VA: mem.GuestVirt(arg), Len: uint64(cmd.Size())})
	}
	return dst
}

// symval is a value linear in the ioctl argument: a*arg + b.
type symval struct {
	a, b uint64
}

func (v symval) concrete() (uint64, bool) { return v.b, v.a == 0 }

type opRec struct {
	static StaticOp
}

type execEnv struct {
	arg     symval
	cmdSize uint64
	locals  map[string]symval
	bufs    map[string][]byte // JIT: kernel copies of user data
	wanted  map[string]bool   // buffers some LoadField reads
	reader  UserReader        // nil = offline
	ops     []opRec
}

// loadedBufs collects the buffer names LoadField expressions read, so JIT
// execution fetches only the user data that feeds later operation
// arguments.
func loadedBufs(body []Stmt, into map[string]bool) {
	var walkExpr func(Expr)
	walkExpr = func(e Expr) {
		switch e := e.(type) {
		case LoadField:
			into[e.Buf] = true
		case Bin:
			walkExpr(e.L)
			walkExpr(e.R)
		}
	}
	for _, s := range body {
		switch s := s.(type) {
		case CopyFromUser:
			walkExpr(s.Src)
			walkExpr(s.Size)
		case CopyToUser:
			walkExpr(s.Dst)
			walkExpr(s.Size)
		case Let:
			walkExpr(s.Val)
		case For:
			walkExpr(s.Count)
			loadedBufs(s.Body, into)
		case If:
			walkExpr(s.Cond)
			loadedBufs(s.Then, into)
			loadedBufs(s.Else, into)
		}
	}
}

// execute runs a slice. With reader == nil this is offline execution: the
// argument stays symbolic and any touch of user data aborts with
// ErrDynamic. With a reader it is the JIT execution the frontend performs.
func execute(body []Stmt, arg symval, cmdSize uint64, reader UserReader) ([]opRec, error) {
	env := &execEnv{
		arg:     arg,
		cmdSize: cmdSize,
		locals:  make(map[string]symval),
		bufs:    make(map[string][]byte),
		wanted:  make(map[string]bool),
		reader:  reader,
	}
	loadedBufs(body, env.wanted)
	if err := env.run(body); err != nil {
		return nil, err
	}
	return env.ops, nil
}

func (e *execEnv) run(body []Stmt) error {
	for _, s := range body {
		switch s := s.(type) {
		case CopyFromUser:
			src, err := e.eval(s.Src)
			if err != nil {
				return err
			}
			size, err := e.eval(s.Size)
			if err != nil {
				return err
			}
			n, ok := size.concrete()
			if !ok {
				return ErrDynamic
			}
			e.ops = append(e.ops, opRec{StaticOp{Kind: grant.KindCopyFrom, ACoef: src.a, Off: src.b, Len: n}})
			if e.reader != nil && e.wanted[s.Dst] {
				buf := make([]byte, n)
				if err := e.reader.ReadUser(mem.GuestVirt(src.b), buf); err != nil {
					return err
				}
				e.bufs[s.Dst] = buf
			} else {
				e.bufs[s.Dst] = nil // defined; contents not needed (or offline)
			}
		case CopyToUser:
			dst, err := e.eval(s.Dst)
			if err != nil {
				return err
			}
			size, err := e.eval(s.Size)
			if err != nil {
				return err
			}
			n, ok := size.concrete()
			if !ok {
				return ErrDynamic
			}
			e.ops = append(e.ops, opRec{StaticOp{Kind: grant.KindCopyTo, ACoef: dst.a, Off: dst.b, Len: n}})
		case Let:
			v, err := e.eval(s.Val)
			if err != nil {
				return err
			}
			e.locals[s.Name] = v
		case For:
			count, err := e.eval(s.Count)
			if err != nil {
				return err
			}
			n, ok := count.concrete()
			if !ok {
				return ErrDynamic
			}
			for i := uint64(0); i < n; i++ {
				e.locals[s.Var] = symval{b: i}
				if err := e.run(s.Body); err != nil {
					return err
				}
			}
		case If:
			cond, err := e.eval(s.Cond)
			if err != nil {
				return err
			}
			c, ok := cond.concrete()
			if !ok {
				return ErrDynamic
			}
			arm := s.Else
			if c != 0 {
				arm = s.Then
			}
			if err := e.run(arm); err != nil {
				return err
			}
		case DriverWork:
			// only reachable on unsliced bodies; no effect on analysis
		}
	}
	return nil
}

func (e *execEnv) eval(x Expr) (symval, error) {
	switch x := x.(type) {
	case Arg:
		return e.arg, nil
	case CmdSize:
		return symval{b: e.cmdSize}, nil
	case Const:
		return symval{b: uint64(x)}, nil
	case Local:
		v, ok := e.locals[string(x)]
		if !ok {
			return symval{}, fmt.Errorf("ioctlan: undefined local %q", string(x))
		}
		return v, nil
	case LoadField:
		buf, defined := e.bufs[x.Buf]
		if !defined && e.reader == nil {
			return symval{}, fmt.Errorf("ioctlan: load from undefined buffer %q", x.Buf)
		}
		if e.reader == nil || buf == nil {
			return symval{}, ErrDynamic
		}
		if x.Off+x.Size > uint64(len(buf)) {
			return symval{}, fmt.Errorf("ioctlan: field [%d:%d] outside buffer %q (%d bytes)",
				x.Off, x.Off+x.Size, x.Buf, len(buf))
		}
		var v uint64
		switch x.Size {
		case 1:
			v = uint64(buf[x.Off])
		case 2:
			v = uint64(binary.LittleEndian.Uint16(buf[x.Off:]))
		case 4:
			v = uint64(binary.LittleEndian.Uint32(buf[x.Off:]))
		case 8:
			v = binary.LittleEndian.Uint64(buf[x.Off:])
		default:
			return symval{}, fmt.Errorf("ioctlan: bad field size %d", x.Size)
		}
		return symval{b: v}, nil
	case Bin:
		l, err := e.eval(x.L)
		if err != nil {
			return symval{}, err
		}
		r, err := e.eval(x.R)
		if err != nil {
			return symval{}, err
		}
		switch x.Op {
		case '+':
			return symval{a: l.a + r.a, b: l.b + r.b}, nil
		case '-':
			return symval{a: l.a - r.a, b: l.b - r.b}, nil
		case '*':
			if l.a != 0 && r.a != 0 {
				return symval{}, fmt.Errorf("ioctlan: nonlinear arg use")
			}
			if l.a != 0 {
				rc, _ := r.concrete()
				return symval{a: l.a * rc, b: l.b * rc}, nil
			}
			lc, _ := l.concrete()
			return symval{a: r.a * lc, b: r.b * lc}, nil
		default:
			return symval{}, fmt.Errorf("ioctlan: bad operator %c", x.Op)
		}
	default:
		return symval{}, fmt.Errorf("ioctlan: unknown expression %T", x)
	}
}
