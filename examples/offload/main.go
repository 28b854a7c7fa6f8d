// Offload reproduces the paper's Fig. 1 literally: the vector-add offload
// pragma expressed as a COI program, compiled (lowered) to a schedulable
// job, and executed on the simulated Xeon Phi — DMA, kernel, and host
// phases all visible in the offload timeline.
//
//	go run ./examples/offload
package main

import (
	"fmt"
	"os"

	"phishare/internal/cluster"
	"phishare/internal/coi"
	"phishare/internal/obs"
	"phishare/internal/runner"
	"phishare/internal/sim"
	"phishare/internal/units"
)

func main() {
	// Fig. 1: c[i] = a[i] + b[i] over SIZE elements. 256 MB per array,
	// a 2-second kernel on 120 threads.
	prog := coi.VectorAdd(256, 2*units.Second, 120)

	fmt.Println("the Fig. 1 offload program, as the compiler lowers it:")
	for _, s := range prog.Stmts {
		fmt.Println("   ", s)
	}

	j, err := prog.Lower(1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nlowered job: %v (declared %v / %v)\n", j.Name, j.Mem, j.Threads)
	for i, p := range j.Phases {
		switch {
		case p.TransferIn > 0 || p.TransferOut > 0:
			fmt.Printf("  phase %d: %v %v, %v threads, DMA in %v out %v\n",
				i, p.Kind, p.Duration, p.Threads, p.TransferIn, p.TransferOut)
		case p.Threads > 0:
			fmt.Printf("  phase %d: %v %v, %v threads\n", i, p.Kind, p.Duration, p.Threads)
		default:
			fmt.Printf("  phase %d: %v %v\n", i, p.Kind, p.Duration)
		}
	}

	// Execute two instances concurrently on one coprocessor: their
	// 120-thread kernels overlap (the Fig. 3 effect) while their DMA
	// shares the PCIe link.
	eng := sim.New()
	clu := cluster.New(eng, cluster.Config{Nodes: 1, UseCosmic: true, Seed: 1})
	ob := obs.New()
	clu.Units[0].Device.SetObserver(ob)

	var makespan units.Tick
	names := map[int64]string{}
	for id := 1; id <= 2; id++ {
		inst, err := prog.Lower(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		names[int64(inst.ID)] = inst.Name
		runner.Run(clu.Units[0], inst, runner.DoneFunc(func(runner.Result) {
			if eng.Now() > makespan {
				makespan = eng.Now()
			}
		}))
	}
	eng.Run()

	fmt.Printf("\ntwo concurrent instances on one Xeon Phi:\n")
	fmt.Print(obs.RenderOffloads(obs.SpansFromTrace(ob.Trace), names, 72, 240))
	fmt.Printf("makespan %.2f s (kernels overlap; DMA shares the 6 GB/s link)\n",
		makespan.Seconds())
}
