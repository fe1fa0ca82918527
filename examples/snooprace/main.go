// Command snooprace reproduces the paper's §3.2 scenario: the snooping
// protocol corner case the designers "did not initially consider". A
// cache that has issued a Writeback observes one foreign
// RequestReadWrite (ownership transfers away — first transient), then a
// second one before its own Writeback is ordered.
//
// The full protocol specifies the transition; the speculatively
// simplified protocol leaves it unspecified, detects it as a
// mis-speculation, and relies on recovery plus slow-start — which
// provably prevents a recurrence, because the race needs at least two
// transactions outstanding.
package main

import (
	"fmt"

	"specsimp/internal/coherence"
	"specsimp/internal/network"
	"specsimp/internal/sim"
	"specsimp/internal/snoop"
)

const blkA = coherence.Addr(0)

// stage drives the race: node 1 owns block A in M; nodes 2 and 3 issue
// stores whose GetMs are ordered on the bus ahead of node 1's PutM.
func stage(v snoop.Variant) (*sim.Kernel, *snoop.Protocol, *int) {
	k := sim.NewKernel()
	data := network.New(k, network.SafeStaticConfig(2, 2, 0.8))
	bus := snoop.NewBus(k, snoop.DefaultBusConfig(4))
	p := snoop.New(k, bus, data, snoop.DefaultConfig(4, v), nil)

	done := new(int)
	ownerReady := false
	p.Access(1, blkA, coherence.Store, func() { ownerReady = true })
	k.Drain(1_000_000)
	if !ownerReady {
		panic("setup failed")
	}
	p.Access(2, blkA, coherence.Store, func() { *done++ })
	p.Access(3, blkA, coherence.Store, func() { *done++ })
	k.Run(k.Now() + 1)
	if !p.Flush(1, blkA) { // PutM submitted behind both GetMs
		panic("flush refused")
	}
	fmt.Printf("  node 1 state after issuing Writeback: %s\n", p.CacheState(1, blkA))
	return k, p, done
}

func main() {
	fmt.Println("§3.2 snooping corner case: Writeback racing two RequestReadWrites")
	fmt.Println()

	fmt.Println("full protocol (corner case specified):")
	k, p, done := stage(snoop.Full)
	k.Drain(1_000_000)
	fmt.Printf("  both racing stores completed: %v (completions=%d)\n", *done == 2, *done)
	fmt.Printf("  corner case exercised %d time(s), handled in place\n", p.Stats().CornerHandled.Value())
	fmt.Printf("  final owner: node 3 in %s, block version %d\n\n",
		p.CacheState(3, blkA), p.BlockVersion(blkA))

	fmt.Println("speculative protocol (corner case unspecified -> mis-speculation):")
	k, p, _ = stage(snoop.Spec)
	p.OnMisSpeculation = func(_ coherence.NodeID, reason string) {
		fmt.Printf("  MIS-SPECULATION detected: %q -> SafetyNet recovery + slow-start\n", reason)
		p.ResetTransients()
		p.Bus().Reset()
	}
	k.Drain(1_000_000)
	fmt.Printf("  detections: %d\n", p.Stats().CornerDetected.Value())
	fmt.Println()
	fmt.Println("With slow-start limiting the system to one outstanding transaction")
	fmt.Println("after recovery, the double race cannot recur (paper §3.2 feature 4).")
}
