// Command deadlock demonstrates the paper's §4 interconnect
// simplification. Part 1 reproduces Figures 2 and 3 at network level: a
// simplified torus (no virtual networks or channels, one tiny shared
// buffer pool per switch) is driven into a standstill. Part 2 runs the
// full system on that network: the coherence transaction timeout
// detects the deadlock, SafetyNet recovers, and slow-start guarantees
// forward progress.
package main

import (
	"fmt"

	"specsimp/internal/network"
	"specsimp/internal/sim"
	"specsimp/internal/system"
	"specsimp/internal/workload"
)

func part1() {
	fmt.Println("Part 1 — deadlock without virtual channels (Figures 2 & 3)")
	k := sim.NewKernel()
	net := network.New(k, network.SimplifiedConfig(4, 4, 1.0, 1))
	for i := 0; i < 16; i++ {
		net.AttachClient(network.NodeID(i), network.ClientFunc(func(m *network.Message) bool {
			return true
		}))
	}
	// A dense synchronized all-to-all burst: with one buffer slot per
	// switch, cyclic buffer waits form.
	n := 0
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			m := net.AllocMessage(network.NodeID(s))
			m.Src, m.Dst, m.VNet, m.Size = network.NodeID(s), network.NodeID(d), 0, 72
			net.Send(m)
			n++
		}
	}
	k.Drain(10_000_000)
	stuck := net.InFlight()
	fmt.Printf("  injected %d messages; network quiesced with %d stuck\n", n, stuck)
	if stuck > 0 {
		fmt.Println("  => DEADLOCK: no event can fire, messages hold each other's buffers")
	}
	fmt.Println()
}

func part2() {
	fmt.Println("Part 2 — the system recovers from interconnect deadlock (§4)")
	cfg := system.DefaultConfig(system.DirectorySpec, workload.Hotspot)
	cfg.Net = network.SimplifiedConfig(4, 4, 0.2, 2) // deadlock-prone
	cfg.CheckpointInterval = 20_000
	cfg.TimeoutCycles = 3 * cfg.CheckpointInterval // paper: 3 intervals
	cfg.SlowStartWindow = 60_000
	r := system.RunOne(cfg, 3_000_000)
	fmt.Printf("  instructions retired: %d (perf %.4f)\n", r.Instructions, r.Perf)
	fmt.Printf("  deadlock timeouts detected: %d\n", r.Timeouts)
	fmt.Printf("  recoveries performed:       %d  %v\n", r.Recoveries, r.RecoveryReasons)
	fmt.Println("  => the run completed: detection by timeout, recovery by")
	fmt.Println("     SafetyNet, forward progress by slow-start — no virtual")
	fmt.Println("     channels anywhere.")
}

func main() {
	part1()
	part2()
}
