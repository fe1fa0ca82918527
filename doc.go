// Package specsimp is a from-scratch reproduction of
//
//	Sorin, Martin, Hill & Wood,
//	"Using Speculation to Simplify Multiprocessor Design", IPDPS 2004.
//
// It provides the paper's speculation-for-simplicity framework
// (detect / recover / guarantee forward progress), complete simulated
// substrates — a 2D-torus interconnect with static and adaptive routing,
// MOSI directory and broadcast-snooping cache coherence protocols in
// both "full" and "speculatively simplified" variants, a SafetyNet-style
// global checkpoint/recovery service, blocking processors, and synthetic
// commercial workloads.
//
// The root package holds no code. The commands under cmd/ are the way
// in: sweep regenerates every table and figure of the paper (see
// EXPERIMENTS.md), specsim runs one machine, tables prints the
// descriptive tables and verify model-checks the protocols. The
// programs under examples/ each tell one of the paper's scenarios
// through the implementation packages, and DESIGN.md holds the system
// inventory and the per-experiment index.
//
// # Quick start
//
//	go run ./examples/quickstart
//	go run ./cmd/specsim -kind directory-spec -workload oltp -cycles 1000000
package specsimp
