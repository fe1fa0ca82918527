package runner

// Metrics is the fixed measurement schema shared by every design-point
// run. It replaced the original map[string]float64: a typed struct is
// returned by value, so executing a grid point allocates nothing for its
// results, and the CSV column set is identical for every experiment by
// construction.
type Metrics struct {
	Perf              float64
	Cycles            float64
	Instructions      float64
	Recoveries        float64
	Checkpoints       float64
	CheckpointStall   float64
	MeanLostWork      float64
	MeanLinkUtil      float64
	ReorderTotal      float64
	Deflections       float64
	Timeouts          float64
	CornerDetected    float64
	CornerHandled     float64
	LogHighWaterBytes float64
	Writebacks        float64
	WBRaces           float64
	Invalidations     float64
	InvBroadcasts     float64
	SharerOverflows   float64
	Transactions      float64
	MissLatencyMean   float64
	LimitStalls       float64
	OrderViolations   float64
	ReorderVNet       [4]float64

	// Availability metrics (see system.Results): degraded-mode
	// throughput, log backpressure, and the exact recovery-latency and
	// rollback-distance distribution moments. All are integers in the
	// source struct; float64 holds them losslessly at experiment scales.
	OutageCycles            float64
	DegradedCycles          float64
	DegradedInstructions    float64
	LogStallCycles          float64
	LogOverflows            float64
	CheckpointIntervalFinal float64
	RecoveryLatN            float64
	RecoveryLatSum          float64
	RecoveryLatMin          float64
	RecoveryLatMax          float64
	RollbackN               float64
	RollbackSum             float64
	RollbackMin             float64
	RollbackMax             float64
}

// metricTable is the metric schema's only list of CSV column names:
// each name paired with the Metrics slot it reads and writes, in
// sorted order, which is the CSV layout contract (the artifact format
// predates the typed schema and is kept byte-compatible). MetricKeys,
// Get and Set all derive from it.
var metricTable = []struct {
	key  string
	slot func(m *Metrics) *float64
}{
	{"checkpoint_interval_final", func(m *Metrics) *float64 { return &m.CheckpointIntervalFinal }},
	{"checkpoint_stall", func(m *Metrics) *float64 { return &m.CheckpointStall }},
	{"checkpoints", func(m *Metrics) *float64 { return &m.Checkpoints }},
	{"corner_detected", func(m *Metrics) *float64 { return &m.CornerDetected }},
	{"corner_handled", func(m *Metrics) *float64 { return &m.CornerHandled }},
	{"cycles", func(m *Metrics) *float64 { return &m.Cycles }},
	{"deflections", func(m *Metrics) *float64 { return &m.Deflections }},
	{"degraded_cycles", func(m *Metrics) *float64 { return &m.DegradedCycles }},
	{"degraded_instructions", func(m *Metrics) *float64 { return &m.DegradedInstructions }},
	{"instructions", func(m *Metrics) *float64 { return &m.Instructions }},
	{"inv_broadcasts", func(m *Metrics) *float64 { return &m.InvBroadcasts }},
	{"invalidations", func(m *Metrics) *float64 { return &m.Invalidations }},
	{"limit_stalls", func(m *Metrics) *float64 { return &m.LimitStalls }},
	{"log_high_water_bytes", func(m *Metrics) *float64 { return &m.LogHighWaterBytes }},
	{"log_overflows", func(m *Metrics) *float64 { return &m.LogOverflows }},
	{"log_stall_cycles", func(m *Metrics) *float64 { return &m.LogStallCycles }},
	{"mean_link_util", func(m *Metrics) *float64 { return &m.MeanLinkUtil }},
	{"mean_lost_work", func(m *Metrics) *float64 { return &m.MeanLostWork }},
	{"miss_latency_mean", func(m *Metrics) *float64 { return &m.MissLatencyMean }},
	{"order_violations", func(m *Metrics) *float64 { return &m.OrderViolations }},
	{"outage_cycles", func(m *Metrics) *float64 { return &m.OutageCycles }},
	{"perf", func(m *Metrics) *float64 { return &m.Perf }},
	{"recoveries", func(m *Metrics) *float64 { return &m.Recoveries }},
	{"recovery_lat_max", func(m *Metrics) *float64 { return &m.RecoveryLatMax }},
	{"recovery_lat_min", func(m *Metrics) *float64 { return &m.RecoveryLatMin }},
	{"recovery_lat_n", func(m *Metrics) *float64 { return &m.RecoveryLatN }},
	{"recovery_lat_sum", func(m *Metrics) *float64 { return &m.RecoveryLatSum }},
	{"reorder_total", func(m *Metrics) *float64 { return &m.ReorderTotal }},
	{"reorder_vnet0", func(m *Metrics) *float64 { return &m.ReorderVNet[0] }},
	{"reorder_vnet1", func(m *Metrics) *float64 { return &m.ReorderVNet[1] }},
	{"reorder_vnet2", func(m *Metrics) *float64 { return &m.ReorderVNet[2] }},
	{"reorder_vnet3", func(m *Metrics) *float64 { return &m.ReorderVNet[3] }},
	{"rollback_max", func(m *Metrics) *float64 { return &m.RollbackMax }},
	{"rollback_min", func(m *Metrics) *float64 { return &m.RollbackMin }},
	{"rollback_n", func(m *Metrics) *float64 { return &m.RollbackN }},
	{"rollback_sum", func(m *Metrics) *float64 { return &m.RollbackSum }},
	{"sharer_overflows", func(m *Metrics) *float64 { return &m.SharerOverflows }},
	{"timeouts", func(m *Metrics) *float64 { return &m.Timeouts }},
	{"transactions", func(m *Metrics) *float64 { return &m.Transactions }},
	{"wb_races", func(m *Metrics) *float64 { return &m.WBRaces }},
	{"writebacks", func(m *Metrics) *float64 { return &m.Writebacks }},
}

// metricIndex maps a column name to its metricTable row.
var metricIndex = func() map[string]int {
	idx := make(map[string]int, len(metricTable))
	for i, e := range metricTable {
		idx[e.key] = i
	}
	return idx
}()

// MetricKeys returns the metric column names in CSV order.
func MetricKeys() []string {
	keys := make([]string, len(metricTable))
	for i, e := range metricTable {
		keys[i] = e.key
	}
	return keys
}

// slot returns the field the metric named by key (the CSV column name)
// lives in. Unknown keys are a programming error and panic: experiment
// aggregation code addresses metrics by name and a typo must not read
// as silent zero.
func (m *Metrics) slot(key string) *float64 {
	i, ok := metricIndex[key]
	if !ok {
		panic("runner: unknown metric key " + key)
	}
	return metricTable[i].slot(m)
}

// Get returns the metric named by key; unknown keys panic.
func (m *Metrics) Get(key string) float64 { return *m.slot(key) }

// Set assigns the metric named by key — Get's inverse, used to rebuild
// a run's Metrics from its CSV row or ledger entry without
// re-simulating. Unknown keys panic, exactly like Get.
func (m *Metrics) Set(key string, v float64) { *m.slot(key) = v }
