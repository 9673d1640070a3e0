// Command ioctl-analyzer is the front door to the static-analysis tool of
// §4.1: it analyzes the ioctl handlers of the radeon-class DRM driver (the
// one driver that ships ioctl IR), classifies each command as
// offline-resolvable (static grant entries) or data-dependent (nested
// copies, requiring just-in-time slice execution in the CVD frontend), and
// optionally dumps the extracted slices.
//
// Usage:
//
//	ioctl-analyzer          # summary table
//	ioctl-analyzer -dump    # plus the extracted code
package main

import (
	"flag"
	"fmt"
	"os"

	"paradice/internal/driver/drm"
	"paradice/internal/ioctlan"
)

func main() {
	dump := flag.Bool("dump", false, "print the extracted slices")
	flag.Parse()

	progs := drm.IoctlIR()
	fmt.Printf("analyzing %d ioctl commands of the radeon driver\n\n", len(progs))
	fmt.Printf("%-16s %-10s %-26s %s\n", "COMMAND", "NUMBER", "CLASSIFICATION", "SLICE (stmts)")
	dynamic, extracted := 0, 0
	for _, p := range progs {
		spec, err := ioctlan.Analyze(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", p.Name, err)
			os.Exit(1)
		}
		kind := "static entries"
		if spec.Dynamic {
			kind = "nested copies -> JIT"
			dynamic++
			extracted += spec.ExtractedLines
		}
		fmt.Printf("%-16s %-10s %-26s %d of %d\n",
			p.Name, p.Cmd, kind, spec.ExtractedLines, spec.OriginalLines)
		if !spec.Dynamic {
			for _, s := range spec.Static {
				op := s.Materialize(0xA0000000) // illustrative argument
				fmt.Printf("%-16s   entry: %v %d bytes at %v\n", "", op.Kind, op.Len, op.VA)
			}
		}
		if *dump {
			for _, line := range ioctlan.Format(spec.Slice) {
				fmt.Printf("%-16s   | %s\n", "", line)
			}
		}
	}
	fmt.Printf("\n%d of %d commands require just-in-time execution "+
		"(%d extracted statements).\n", dynamic, len(progs), extracted)
	fmt.Println("the paper's tool found nested copies in 14 of the Radeon driver's")
	fmt.Println("commands, generating ~760 lines of extracted code (§4.1).")
}
