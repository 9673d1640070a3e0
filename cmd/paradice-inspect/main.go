// Command paradice-inspect boots a machine, exercises it with a small
// workload (a 32×32 GPU matmul, then 2000 netmap packets), and dumps its
// architectural state: the system-physical memory map, each VM's EPT
// footprint, the IOMMU domain contents, the devfs of every kernel, and the
// device info the guests see. Useful for understanding how the pieces of the
// paper's Figure 1(c) fit together.
//
// With -trace FILE the exercise workload runs under the cross-layer tracer
// and its Chrome trace_event JSON is written to FILE (load in Perfetto);
// with -json the state dump itself is machine-readable JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"paradice"
	"paradice/internal/workload"
)

func main() {
	di := flag.Bool("di", false, "enable device data isolation")
	traceOut := flag.String("trace", "", "write a Chrome trace of the exercise workload to this file")
	jsonOut := flag.Bool("json", false, "dump machine state as JSON instead of text")
	flag.Parse()

	m, err := paradice.New(paradice.Config{DataIsolation: *di})
	if err != nil {
		log.Fatal(err)
	}
	g, err := m.AddGuest("guest1", paradice.Linux)
	if err != nil {
		log.Fatal(err)
	}
	if err := g.Paravirtualize(paradice.PathGPU, paradice.PathMouse, paradice.PathNetmap); err != nil {
		log.Fatal(err)
	}
	if *traceOut != "" {
		m.StartTrace()
	}
	if _, err := workload.RunMatmul(m.Env, g.K, 32, 1); err != nil {
		log.Fatal(err)
	}
	if _, err := workload.RunPktGen(m.Env, g.K, 16, 2000, 64); err != nil {
		log.Fatal(err)
	}
	if *traceOut != "" {
		tr := m.StopTrace()
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.WriteChrome(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", len(tr.Events()), *traceOut)
	}

	if *jsonOut {
		dumpJSON(m, g)
		return
	}
	dumpText(m, g)
}

func dumpText(m *paradice.Machine, g *paradice.Guest) {
	fmt.Println("=== system-physical memory map ===")
	for _, r := range m.HV.Phys.Ranges() {
		fmt.Printf("  %-24s %#14x + %#x\n", r.Name, uint64(r.Base), r.Size)
	}

	fmt.Println("\n=== virtual machines ===")
	for _, vm := range m.HV.VMs() {
		fmt.Printf("  %-12s id=%d ram=%d MiB ept-entries=%d\n",
			vm.Name, vm.ID, vm.RAM>>20, vm.EPT.Count())
	}

	fmt.Println("\n=== GPU IOMMU domain ===")
	fmt.Printf("  live pages: %d, active region: %d\n",
		m.GPUDomain.LivePages(), m.GPUDomain.Active())
	fmt.Printf("  MC window: [%#x, %#x)\n", mcLo(m), mcHi(m))
	fmt.Printf("  MC register gate revoked from driver VM: %v\n", m.MCGate.Revoked())

	fmt.Println("\n=== driver VM devfs ===")
	for _, p := range m.DriverK.DevicePaths() {
		fmt.Printf("  %s\n", p)
	}

	fmt.Println("\n=== guest devfs (virtual device files) ===")
	for _, p := range g.K.DevicePaths() {
		fe := g.Frontends[p]
		if fe != nil {
			fmt.Printf("  %-22s round-trips=%d rejected=%d\n", p, fe.RoundTrips, fe.Rejected)
		} else {
			fmt.Printf("  %s\n", p)
		}
	}

	fmt.Println("\n=== channel statistics ===")
	for _, p := range channelPaths(g) {
		be := g.Frontends[p].Backend()
		fmt.Printf("  %-22s ops=%d notifs=%d dropped=%d wake-irqs=%d polled=%d\n",
			p, be.OpsHandled, be.NotifsSent, be.NotifsDropped, be.WakeIRQs, be.PolledPosts)
	}

	fmt.Println("\n=== devices ===")
	fmt.Printf("  gpu: executed=%d faults=%d fence=%d broken=%v\n",
		m.GPU.Executed, m.GPU.Faults, m.GPU.FenceSeq(), m.GPU.Broken())
	fmt.Printf("  nic: tx=%d pkts %d bytes, dma-faults=%d\n",
		m.NIC.TxPackets, m.NIC.TxBytes, m.NIC.DMAFaults)
	fmt.Printf("  camera: frames=%d dma-faults=%d\n", m.Camera.Frames, m.Camera.DMAFaults)
	fmt.Printf("  audio: frames-played=%d underruns=%d\n", m.Audio.FramesPlayed, m.Audio.Underruns)

	fmt.Printf("\nsimulated time: %v\n", m.Env.Now())
}

// dumpJSON emits the same architectural state as the text dump, structured.
func dumpJSON(m *paradice.Machine, g *paradice.Guest) {
	type vmInfo struct {
		Name       string `json:"name"`
		ID         int    `json:"id"`
		RAMMiB     uint64 `json:"ram_mib"`
		EPTEntries int    `json:"ept_entries"`
	}
	type channelInfo struct {
		Path          string `json:"path"`
		Ops           uint64 `json:"ops"`
		Notifs        uint64 `json:"notifs"`
		NotifsDropped uint64 `json:"notifs_dropped"`
		WakeIRQs      uint64 `json:"wake_irqs"`
		PolledPosts   uint64 `json:"polled_posts"`
	}
	out := struct {
		VMs         []vmInfo      `json:"vms"`
		DriverDevfs []string      `json:"driver_devfs"`
		GuestDevfs  []string      `json:"guest_devfs"`
		Channels    []channelInfo `json:"channels"`
		GPUExecuted int64         `json:"gpu_executed"`
		GPUFaults   int64         `json:"gpu_faults"`
		NICTxPkts   int64         `json:"nic_tx_packets"`
		SimTimeNs   int64         `json:"sim_time_ns"`
	}{
		DriverDevfs: m.DriverK.DevicePaths(),
		GuestDevfs:  g.K.DevicePaths(),
		GPUExecuted: int64(m.GPU.Executed),
		GPUFaults:   int64(m.GPU.Faults),
		NICTxPkts:   int64(m.NIC.TxPackets),
		SimTimeNs:   int64(m.Env.Now()),
	}
	for _, vm := range m.HV.VMs() {
		out.VMs = append(out.VMs, vmInfo{Name: vm.Name, ID: int(vm.ID), RAMMiB: vm.RAM >> 20, EPTEntries: vm.EPT.Count()})
	}
	for _, p := range channelPaths(g) {
		be := g.Frontends[p].Backend()
		out.Channels = append(out.Channels, channelInfo{
			Path: p, Ops: be.OpsHandled, Notifs: be.NotifsSent, NotifsDropped: be.NotifsDropped,
			WakeIRQs: be.WakeIRQs, PolledPosts: be.PolledPosts,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		log.Fatal(err)
	}
}

// channelPaths returns the paths of g's channels, sorted, so the dump is the
// same on every run.
func channelPaths(g *paradice.Guest) []string {
	paths := make([]string, 0, len(g.Frontends))
	for p := range g.Frontends {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

func mcLo(m *paradice.Machine) uint64 { lo, _ := m.GPU.MCBounds(); return lo }
func mcHi(m *paradice.Machine) uint64 { _, hi := m.GPU.MCBounds(); return hi }
