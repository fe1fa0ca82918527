package specsimp_test

import (
	"strings"
	"testing"

	"specsimp"
)

// The facade tests double as API documentation: everything a downstream
// user needs is reachable from the root package.

func TestFacadeQuickstart(t *testing.T) {
	cfg := specsimp.DefaultConfig(specsimp.DirectorySpec, specsimp.Uniform)
	res := specsimp.RunOne(cfg, 300_000)
	if res.Instructions == 0 || res.Perf <= 0 {
		t.Fatalf("no progress: %+v", res)
	}
	if res.Workload != "uniform" {
		t.Fatalf("workload %q", res.Workload)
	}
}

func TestFacadeTables(t *testing.T) {
	if !strings.Contains(specsimp.Table1(), "SafetyNet") {
		t.Fatal("Table 1 broken")
	}
	cfg := specsimp.DefaultConfig(specsimp.SnoopSpec, specsimp.OLTP)
	if !strings.Contains(specsimp.Table2(cfg), "torus") {
		t.Fatal("Table 2 broken")
	}
}

func TestFacadeWorkloads(t *testing.T) {
	suite := specsimp.WorkloadSuite()
	if len(suite) != 5 {
		t.Fatalf("suite size %d", len(suite))
	}
	if _, ok := specsimp.WorkloadByName("oltp"); !ok {
		t.Fatal("oltp missing")
	}
}

func TestFacadeNetworkDemo(t *testing.T) {
	// The Figure 1 scenario through the public API.
	k := specsimp.NewKernel()
	net := specsimp.NewNetwork(k, specsimp.AdaptiveNetConfig(4, 4, 1.0))
	var got []uint64
	net.AttachClient(5, specsimp.NetClientFunc(func(m *specsimp.NetMessage) bool {
		got = append(got, m.Seq)
		return true
	}))
	net.Send(&specsimp.NetMessage{Src: 0, Dst: 5, VNet: 1, Size: 2000})
	k.At(1, func() { net.Send(&specsimp.NetMessage{Src: 0, Dst: 5, VNet: 1, Size: 8}) })
	k.Drain(1_000_000)
	if len(got) != 2 || got[0] != 1 {
		t.Fatalf("expected the Figure 1 reorder, got %v", got)
	}
}

func TestFacadeProtocolLevel(t *testing.T) {
	// Protocol-level API: drive the directory protocol directly.
	k := specsimp.NewKernel()
	net := specsimp.NewNetwork(k, specsimp.SafeStaticConfig(4, 4, 0.8))
	p := specsimp.NewDirectoryProtocol(k, net, specsimp.DefaultDirectoryConfig(16, specsimp.DirFull))
	done := false
	p.Access(3, specsimp.Addr(0x1000), specsimp.Store, func() { done = true })
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
	df, ds := specsimp.DirectoryComplexity(specsimp.DirFull), specsimp.DirectoryComplexity(specsimp.DirSpec)
	if ds.CacheTransitions >= df.CacheTransitions {
		t.Fatal("speculation did not simplify the directory protocol")
	}
	sf, ss := specsimp.SnoopComplexity(specsimp.SnFull), specsimp.SnoopComplexity(specsimp.SnSpec)
	if ss.Transitions != sf.Transitions-1 {
		t.Fatal("snooping complexity delta is not exactly the corner case")
	}
}

func TestFacadeSpeculations(t *testing.T) {
	for _, s := range []specsimp.Speculation{specsimp.P2POrdering, specsimp.SnoopCorner, specsimp.NoVCDeadlock} {
		c := s.Characterize()
		if c.Recovery != "SafetyNet" {
			t.Fatalf("%s: recovery %q", s.Name(), c.Recovery)
		}
		if c.Infrequency == "" || c.Detection == "" || c.ForwardProgress == "" {
			t.Fatalf("%s: incomplete characterization", s.Name())
		}
	}
}
