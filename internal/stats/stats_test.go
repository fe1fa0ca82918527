package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter=%d want 10", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestSampleMeanStdDev(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("mean=%v want 5", got)
	}
	// Sample (n-1) stddev of that classic set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if got := s.StdDev(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("stddev=%v want %v", got, want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max=%v/%v want 2/9", s.Min(), s.Max())
	}
	if math.Abs(s.Sum()-40) > 1e-9 {
		t.Fatalf("sum=%v want 40", s.Sum())
	}
}

func TestSampleEmptyAndSingle(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 {
		t.Fatal("empty sample not zero")
	}
	s.Observe(3)
	if s.Mean() != 3 || s.StdDev() != 0 {
		t.Fatalf("single observation mean=%v stddev=%v", s.Mean(), s.StdDev())
	}
}

func TestUtilization(t *testing.T) {
	var u Utilization
	u.SetBusy(0, true)
	u.SetBusy(30, false)
	u.SetBusy(70, true)
	u.SetBusy(100, false)
	if got := u.Fraction(100); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("fraction=%v want 0.6", got)
	}
}

func TestUtilizationOpenInterval(t *testing.T) {
	var u Utilization
	u.SetBusy(10, true)
	if got := u.Fraction(20); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("open busy fraction=%v want 0.5", got)
	}
}

func TestUtilizationAddBusyClamped(t *testing.T) {
	var u Utilization
	u.AddBusy(500)
	if got := u.Fraction(100); got != 1 {
		t.Fatalf("fraction should clamp to 1, got %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("workload", "perf")
	tab.AddRow("oltp", "1.00")
	tab.AddRow("jbb", "0.97")
	out := tab.String()
	if !strings.Contains(out, "workload") || !strings.Contains(out, "jbb") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{2, 4, 6}, 2)
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("normalize=%v", out)
	}
	zero := Normalize([]float64{1}, 0)
	if zero[0] != 0 {
		t.Fatal("divide by zero base must yield 0")
	}
}

func TestMedian(t *testing.T) {
	if Median(nil) != 0 {
		t.Fatal("empty median")
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median=%v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("even median=%v", got)
	}
}

// Property: Welford mean matches naive mean for arbitrary inputs.
func TestSampleMeanProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var s Sample
		var sum float64
		finite := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			s.Observe(x)
			sum += x
			finite++
		}
		if finite == 0 {
			return s.Mean() == 0
		}
		naive := sum / float64(finite)
		return math.Abs(s.Mean()-naive) <= 1e-6*(1+math.Abs(naive))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestIntSampleMergeOrderIndependent pins the property sharded stats
// aggregation relies on: any partition of an observation stream merges
// to bit-identical state.
func TestIntSampleMergeOrderIndependent(t *testing.T) {
	vals := []uint64{5, 0, 17, 3, 3, 99, 42, 7, 1, 64}
	var whole IntSample
	for _, v := range vals {
		whole.Observe(v)
	}
	for split := 1; split < len(vals); split++ {
		var a, b, merged IntSample
		for _, v := range vals[:split] {
			a.Observe(v)
		}
		for _, v := range vals[split:] {
			b.Observe(v)
		}
		merged.Merge(b)
		merged.Merge(a)
		if merged != whole {
			t.Fatalf("split %d: merged %+v != whole %+v", split, merged, whole)
		}
	}
	if whole.Mean() != 24.1 || whole.Min() != 0 || whole.Max() != 99 || whole.N() != 10 {
		t.Fatalf("unexpected moments: %+v", whole)
	}
}
