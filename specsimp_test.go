package specsimp

import (
	"strings"
	"testing"

	"specsimp/internal/coherence"
	"specsimp/internal/core"
	"specsimp/internal/directory"
	"specsimp/internal/network"
	"specsimp/internal/sim"
	"specsimp/internal/snoop"
	"specsimp/internal/system"
	"specsimp/internal/workload"
)

// These tests take, from outside the implementation packages, the
// paths the examples and cmd/tables take. Each behaviour is also
// checked inside the package that owns it.

func TestFacadeQuickstart(t *testing.T) {
	cfg := system.DefaultConfig(system.DirectorySpec, workload.Uniform)
	res := system.RunOne(cfg, 300_000)
	if res.Instructions == 0 || res.Perf <= 0 {
		t.Fatalf("no progress: %+v", res)
	}
	if res.Workload != "uniform" {
		t.Fatalf("workload %q", res.Workload)
	}
}

func TestFacadeTables(t *testing.T) {
	if !strings.Contains(core.Table1(), "SafetyNet") {
		t.Fatal("Table 1 broken")
	}
	cfg := system.DefaultConfig(system.SnoopSpec, workload.OLTP)
	if !strings.Contains(system.Table2(cfg), "torus") {
		t.Fatal("Table 2 broken")
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if len(workload.Suite) != 5 {
		t.Fatalf("suite size %d", len(workload.Suite))
	}
	if _, ok := workload.ByName("oltp"); !ok {
		t.Fatal("oltp missing")
	}
}

func TestFacadeNetworkDemo(t *testing.T) {
	// The Figure 1 scenario of examples/reorder.
	k := sim.NewKernel()
	net := network.New(k, network.AdaptiveConfig(4, 4, 1.0))
	var got []uint64
	net.AttachClient(5, network.ClientFunc(func(m *network.Message) bool {
		got = append(got, m.Seq)
		return true
	}))
	net.Send(&network.Message{Src: 0, Dst: 5, VNet: 1, Size: 2000})
	k.At(1, func() { net.Send(&network.Message{Src: 0, Dst: 5, VNet: 1, Size: 8}) })
	k.Drain(1_000_000)
	if len(got) != 2 || got[0] != 1 {
		t.Fatalf("expected the Figure 1 reorder, got %v", got)
	}
}

func TestFacadeProtocolLevel(t *testing.T) {
	// Drive the directory protocol directly, without a machine.
	k := sim.NewKernel()
	net := network.New(k, network.SafeStaticConfig(4, 4, 0.8))
	p, err := directory.NewChecked(k, net, directory.DefaultConfig(16, directory.Full), nil)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	p.Access(3, coherence.Addr(0x1000), coherence.Store, func() { done = true })
	k.Drain(1_000_000)
	if !done {
		t.Fatal("protocol-level access never completed")
	}
	if v := p.BlockVersion(0x1000); v != 1 {
		t.Fatalf("version=%d", v)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeComplexityComparison(t *testing.T) {
	df, ds := directory.ComplexityOf(directory.Full), directory.ComplexityOf(directory.Spec)
	if ds.CacheTransitions >= df.CacheTransitions {
		t.Fatal("speculation did not simplify the directory protocol")
	}
	sf, ss := snoop.ComplexityOf(snoop.Full), snoop.ComplexityOf(snoop.Spec)
	if ss.Transitions != sf.Transitions-1 {
		t.Fatal("snooping complexity delta is not exactly the corner case")
	}
}

func TestFacadeSpeculations(t *testing.T) {
	for _, s := range []core.Speculation{core.P2POrdering, core.SnoopCorner, core.NoVCDeadlock} {
		if s.Recovery != "SafetyNet" {
			t.Fatalf("%s: recovery %q", s.Name, s.Recovery)
		}
		if s.Infrequency == "" || s.Detection == "" || s.ForwardProgress == "" {
			t.Fatalf("%s: incomplete characterization", s.Name)
		}
	}
}
