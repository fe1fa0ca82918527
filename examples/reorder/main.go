// Command reorder reproduces the paper's Figure 1: a source sends two
// messages to the same destination over the adaptively routed torus;
// congestion on the first message's path lets the second overtake it,
// violating point-to-point ordering. The same scenario under static
// dimension-order routing stays in order.
package main

import (
	"fmt"

	"specsimp/internal/network"
	"specsimp/internal/sim"
)

func run(name string, cfg network.Config, disableAdaptive bool) {
	k := sim.NewKernel()
	net := network.New(k, cfg)
	net.SetAdaptiveDisabled(disableAdaptive)

	fmt.Printf("--- %s ---\n", name)
	net.TraceFn = func(ev network.TraceEvent) {
		switch ev.Kind {
		case network.TraceInject:
			fmt.Printf("  t=%5d  node %2d injects  M%d\n", ev.At, ev.Node, ev.Msg.Seq+1)
		case network.TraceForward:
			fmt.Printf("  t=%5d  node %2d forwards M%d %s\n", ev.At, ev.Node, ev.Msg.Seq+1, network.PortName(ev.Dir))
		default:
			fmt.Printf("  t=%5d  node %2d DELIVERS M%d (sent t=%d)\n", ev.At, ev.Node, ev.Msg.Seq+1, ev.Msg.SentAt)
		}
	}
	var order []uint64
	net.AttachClient(5, network.ClientFunc(func(m *network.Message) bool {
		order = append(order, m.Seq)
		return true
	}))

	// Figure 1: the NW switch (node 0) sends M1 then M2 to the SE
	// switch (node 5). M1 is large and hogs the eastward link.
	send := func(size int) {
		m := net.AllocMessage(0)
		m.Src, m.Dst, m.VNet, m.Size = 0, 5, 1, size
		net.Send(m)
	}
	send(2000)
	k.At(1, func() { send(8) })
	k.Drain(1_000_000)

	if len(order) == 2 && order[0] == 1 {
		fmt.Println("  => M2 arrived BEFORE M1: point-to-point order violated")
	} else {
		fmt.Println("  => arrival order preserved")
	}
	fmt.Printf("  reordered messages counted on vnet 1: %d\n\n", net.Stats().Reordered[1].Value())
}

func main() {
	fmt.Println("Figure 1: violating point-to-point order with adaptive routing")
	fmt.Println()
	run("adaptive routing (paper §3.1 network)", network.AdaptiveConfig(4, 4, 1.0), false)
	run("static dimension-order routing", network.AdaptiveConfig(4, 4, 1.0), true)
	fmt.Println("The §3.1 speculative directory protocol relies on the order that")
	fmt.Println("adaptive routing just violated; it detects the violation as one")
	fmt.Println("invalid controller transition and recovers with SafetyNet.")
}
