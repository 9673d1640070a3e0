// multi-vm-opencl: the §6.1.4 concurrency experiment (Figure 6). One, two,
// and three guest VMs run the OpenCL matrix multiplication simultaneously
// on one GPU shared through Paradice; experiment time scales roughly
// linearly with the number of guests because the command processor
// time-shares between them.
package main

import (
	"fmt"
	"log"

	"paradice"
	"paradice/internal/kernel"
	"paradice/internal/workload"
)

func main() {
	const order = 256
	const runs = 3
	fmt.Printf("OpenCL matmul (order %d, %d runs per guest) on one shared GPU\n\n", order, runs)
	for nguests := 1; nguests <= 3; nguests++ {
		m, err := paradice.New(paradice.Config{})
		if err != nil {
			log.Fatal(err)
		}
		results := make([][]workload.MatmulResult, nguests)
		tasks := make([]*kernel.Task, nguests)
		for i := 0; i < nguests; i++ {
			g, err := m.AddGuest(fmt.Sprintf("vm%d", i+1), paradice.Linux)
			if err != nil {
				log.Fatal(err)
			}
			if err := g.Paravirtualize(paradice.PathGPU); err != nil {
				log.Fatal(err)
			}
			results[i] = make([]workload.MatmulResult, runs)
			if tasks[i], err = workload.StartMatmulLoop(g.K, order, results[i]); err != nil {
				log.Fatal(err)
			}
		}
		m.Run()
		fmt.Printf("%d guest VM(s):\n", nguests)
		for i := 0; i < nguests; i++ {
			if err := tasks[i].Err(); err != nil {
				log.Fatalf("vm%d: %v", i+1, err)
			}
			var total float64
			for r := 0; r < runs; r++ {
				if !results[i][r].Correct {
					log.Fatalf("vm%d run %d: wrong product", i+1, r)
				}
				total += results[i][r].Elapsed.Seconds()
			}
			fmt.Printf("  vm%d: average experiment time %.3fs (all products verified)\n",
				i+1, total/runs)
		}
	}
	fmt.Println("\nexperiment time grows with the number of guests sharing the")
	fmt.Println("GPU, as in Figure 6: the GPU processing time is divided between")
	fmt.Println("the guest VMs.")
}
