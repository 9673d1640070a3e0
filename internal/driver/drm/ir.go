package drm

import (
	"sync"

	"paradice/internal/devfile"
	"paradice/internal/ioctlan"
)

// IoctlIR is the driver's ioctl handlers in the analyzer's IR — the stand-in
// for the C source the paper's Clang tool parses (§4.1). The CS handler has
// the two-level nested-copy structure (header -> chunk descriptors -> chunk
// data) that defeats the command-number macros and requires just-in-time
// slice execution in the CVD frontend; note the descriptor's length field is
// in 32-bit words, so the extracted slice multiplies it by four.
func IoctlIR() []*ioctlan.Prog {
	return []*ioctlan.Prog{
		{
			Cmd:  IoctlGemCreate,
			Name: "DRM_GEM_CREATE",
			Body: []ioctlan.Stmt{
				ioctlan.CopyFromUser{Dst: "req", Src: ioctlan.Arg{}, Size: ioctlan.CmdSize{}},
				ioctlan.DriverWork{What: "pin VRAM range"},
				ioctlan.DriverWork{What: "install GEM handle"},
				ioctlan.CopyToUser{Dst: ioctlan.Arg{}, Size: ioctlan.CmdSize{}},
			},
		},
		{
			Cmd:  IoctlGemMmap,
			Name: "DRM_GEM_MMAP",
			Body: []ioctlan.Stmt{
				ioctlan.CopyFromUser{Dst: "req", Src: ioctlan.Arg{}, Size: ioctlan.CmdSize{}},
				ioctlan.DriverWork{What: "compute fake mmap offset"},
				ioctlan.CopyToUser{Dst: ioctlan.Arg{}, Size: ioctlan.CmdSize{}},
			},
		},
		{
			Cmd:  IoctlCS,
			Name: "DRM_CS",
			Body: []ioctlan.Stmt{
				ioctlan.DriverWork{What: "acquire ring mutex"},
				ioctlan.CopyFromUser{Dst: "hdr", Src: ioctlan.Arg{}, Size: ioctlan.CmdSize{}},
				ioctlan.Let{Name: "nchunks", Val: ioctlan.LoadField{Buf: "hdr", Off: 0, Size: 4}},
				ioctlan.Let{Name: "chunks", Val: ioctlan.LoadField{Buf: "hdr", Off: 8, Size: 8}},
				ioctlan.DriverWork{What: "reserve IB space"},
				ioctlan.For{Var: "i", Count: ioctlan.Local("nchunks"), Body: []ioctlan.Stmt{
					ioctlan.CopyFromUser{
						Dst: "desc",
						Src: ioctlan.Bin{Op: '+', L: ioctlan.Local("chunks"),
							R: ioctlan.Bin{Op: '*', L: ioctlan.Local("i"), R: ioctlan.Const(16)}},
						Size: ioctlan.Const(16),
					},
					ioctlan.CopyFromUser{
						Dst: "ib",
						Src: ioctlan.LoadField{Buf: "desc", Off: 0, Size: 8},
						Size: ioctlan.Bin{Op: '*',
							L: ioctlan.LoadField{Buf: "desc", Off: 8, Size: 4},
							R: ioctlan.Const(4)},
					},
					ioctlan.DriverWork{What: "validate and emit IB"},
				}},
				ioctlan.DriverWork{What: "emit fence"},
				ioctlan.DriverWork{What: "kick command processor"},
				ioctlan.DriverWork{What: "release ring mutex"},
			},
		},
		{
			Cmd:  IoctlWaitFence,
			Name: "DRM_WAIT_FENCE",
			Body: []ioctlan.Stmt{
				ioctlan.CopyFromUser{Dst: "req", Src: ioctlan.Arg{}, Size: ioctlan.CmdSize{}},
				ioctlan.DriverWork{What: "sleep on fence wait queue"},
			},
		},
		{
			Cmd:  IoctlInfo,
			Name: "DRM_INFO",
			Body: []ioctlan.Stmt{
				ioctlan.DriverWork{What: "gather device identity"},
				ioctlan.CopyToUser{Dst: ioctlan.Arg{}, Size: ioctlan.CmdSize{}},
			},
		},
		{
			Cmd:  IoctlWaitVSync,
			Name: "DRM_WAIT_VSYNC",
			Body: []ioctlan.Stmt{
				ioctlan.CopyFromUser{Dst: "req", Src: ioctlan.Arg{}, Size: ioctlan.CmdSize{}},
				ioctlan.DriverWork{What: "sleep until vblank"},
				ioctlan.CopyToUser{Dst: ioctlan.Arg{}, Size: ioctlan.CmdSize{}},
			},
		},
		{
			Cmd:  IoctlGemClose,
			Name: "DRM_GEM_CLOSE",
			Body: []ioctlan.Stmt{
				ioctlan.CopyFromUser{Dst: "req", Src: ioctlan.Arg{}, Size: ioctlan.CmdSize{}},
				ioctlan.DriverWork{What: "drop handle reference"},
			},
		},
	}
}

// AnalyzedSpecs returns the spec table the CVD frontend consumes: the
// analyzer's output over the driver's IR. The analysis runs once per
// process, and every caller (each machine build) shares its result, so the
// table and its specs are read-only: the frontend only looks specs up, and
// just-in-time slice execution reads a spec's Slice without writing it.
var AnalyzedSpecs = sync.OnceValues(func() (map[devfile.IoctlCmd]*ioctlan.CmdSpec, error) {
	out := make(map[devfile.IoctlCmd]*ioctlan.CmdSpec)
	for _, p := range IoctlIR() {
		spec, err := ioctlan.Analyze(p)
		if err != nil {
			return nil, err
		}
		out[p.Cmd] = spec
	}
	return out, nil
})
