// Package stats provides the measurement primitives the evaluation
// harness uses: counters, samples with mean/stddev (the paper reports one
// standard deviation as error bars, §5.2), exact integer samples, and
// utilization trackers for link-occupancy statistics.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds d.
func (c *Counter) Add(d uint64) { c.n += d }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Sample accumulates observations and reports mean and standard
// deviation using Welford's online algorithm, which is numerically
// stable for long runs.
type Sample struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Observe records one observation.
func (s *Sample) Observe(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Of returns a Sample over the given values — the aggregation
// convenience the sweep engine's result processing uses.
func Of(values ...float64) Sample {
	var s Sample
	for _, v := range values {
		s.Observe(v)
	}
	return s
}

// N returns the number of observations.
func (s *Sample) N() uint64 { return s.n }

// Mean returns the sample mean, or 0 with no observations.
func (s *Sample) Mean() float64 { return s.mean }

// Min returns the smallest observation, or 0 with no observations.
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with no observations.
func (s *Sample) Max() float64 { return s.max }

// StdDev returns the sample standard deviation (n-1 denominator), or 0
// with fewer than two observations.
func (s *Sample) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Sum returns n*mean, the total of all observations.
func (s *Sample) Sum() float64 { return float64(s.n) * s.mean }

// String formats the sample as "mean ± stddev (n=N)".
func (s *Sample) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean(), s.StdDev(), s.n)
}

// IntSample accumulates integer observations with exact integer sums.
// Unlike Sample's Welford accumulator, its state is order-independent:
// merging per-shard IntSamples yields bit-identical results no matter
// how observations were partitioned, which is what keeps sharded
// simulations byte-reproducible at any shard count.
type IntSample struct {
	n, sum   uint64
	min, max uint64
}

// Observe records one observation.
func (s *IntSample) Observe(v uint64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
}

// Merge folds another IntSample into s. Because all state is exact,
// merge order does not affect the result.
func (s *IntSample) Merge(o IntSample) {
	if o.n == 0 {
		return
	}
	if s.n == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.n == 0 || o.max > s.max {
		s.max = o.max
	}
	s.n += o.n
	s.sum += o.sum
}

// N returns the number of observations.
func (s *IntSample) N() uint64 { return s.n }

// Sum returns the exact total of all observations.
func (s *IntSample) Sum() uint64 { return s.sum }

// Mean returns the mean observation, or 0 with no observations.
func (s *IntSample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n)
}

// Min returns the smallest observation, or 0 with no observations.
func (s *IntSample) Min() uint64 { return s.min }

// Max returns the largest observation, or 0 with no observations.
func (s *IntSample) Max() uint64 { return s.max }

// Summary returns the sample's exact state as an exported value.
func (s *IntSample) Summary() IntSummary {
	return IntSummary{N: s.n, Sum: s.sum, Min: s.min, Max: s.max}
}

// IntSummary is the exported snapshot of an IntSample: exact integer
// moments that survive JSON encoding and deep-equality comparison.
// Result structs embed it so distribution columns (recovery latency,
// rollback distance) stay bit-identical across shard counts — the
// values are plain integers, never order-sensitive float folds.
type IntSummary struct {
	N, Sum   uint64
	Min, Max uint64
}

// Mean returns Sum/N, or 0 with no observations.
func (s IntSummary) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.N)
}

// Utilization integrates a busy/idle signal over simulated time.
type Utilization struct {
	busySince uint64
	busy      bool
	busyTime  uint64
	start     uint64
}

// SetBusy transitions the tracked resource at time now.
func (u *Utilization) SetBusy(now uint64, busy bool) {
	if u.busy && !busy {
		u.busyTime += now - u.busySince
	}
	if !u.busy && busy {
		u.busySince = now
	}
	u.busy = busy
}

// AddBusy directly credits d cycles of busy time (for resources modeled
// as reservation windows rather than level signals).
func (u *Utilization) AddBusy(d uint64) { u.busyTime += d }

// Merge folds another tracker's accumulated busy time into u. Only
// meaningful for AddBusy-style trackers (reservation windows), which is
// how per-shard link-utilization stats aggregate.
func (u *Utilization) Merge(o Utilization) { u.busyTime += o.busyTime }

// Fraction returns the busy fraction over [start, now].
func (u *Utilization) Fraction(now uint64) float64 {
	b := u.busyTime
	if u.busy && now > u.busySince {
		b += now - u.busySince
	}
	dur := now - u.start
	if dur == 0 {
		return 0
	}
	f := float64(b) / float64(dur)
	if f > 1 {
		f = 1
	}
	return f
}

// Table is a minimal fixed-width text table writer used by cmd/tables
// and cmd/sweep to print paper-style rows.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	t.rows = append(t.rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := range t.header {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", width[i]+2, c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range width {
		b.WriteString(strings.Repeat("-", w))
		if i != len(width)-1 {
			b.WriteString("  ")
		}
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Normalize divides each value by base, returning 0 where base is 0.
// Used for "normalized performance" figures.
func Normalize(values []float64, base float64) []float64 {
	out := make([]float64, len(values))
	if base == 0 {
		return out
	}
	for i, v := range values {
		out[i] = v / base
	}
	return out
}

// Median returns the median of values (average of middle two for even n).
func Median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
