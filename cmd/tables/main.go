// Command tables prints the paper's descriptive tables and the protocol
// complexity comparison.
//
// Usage:
//
//	tables -table 1           # framework characterization (Table 1)
//	tables -table 2           # target system parameters (Table 2)
//	tables -table 3           # workload suite (Table 3)
//	tables -table complexity  # full-vs-spec controller complexity (A1)
//	tables -table all
//	tables -table complexity -json   # machine-readable complexity counts
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"specsimp/internal/core"
	"specsimp/internal/directory"
	"specsimp/internal/snoop"
	"specsimp/internal/system"
	"specsimp/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tables: ")
	which := flag.String("table", "all", "table to print: 1, 2, 3, complexity, all")
	asJSON := flag.Bool("json", false, "emit the complexity comparison as JSON (tables 1-3 are prose-only)")
	flag.Parse()

	if *asJSON {
		if *which != "complexity" && *which != "all" {
			log.Fatalf("-json covers only -table complexity")
		}
		complexityJSON()
		return
	}

	switch *which {
	case "1":
		table1()
	case "2":
		table2()
	case "3":
		table3()
	case "complexity":
		complexity()
	case "all":
		table1()
		table2()
		table3()
		complexity()
	default:
		log.Fatalf("unknown table %q", *which)
	}
}

func table1() {
	fmt.Println("Table 1. Using the framework to characterize three speculative designs")
	fmt.Println()
	fmt.Println(core.Table1())
}

func table2() {
	fmt.Println("Table 2. Target system parameters")
	fmt.Println()
	cfg := system.DefaultConfig(system.DirectorySpec, workload.OLTP)
	fmt.Println(system.Table2(cfg))
}

func table3() {
	fmt.Println("Table 3. Workloads (synthetic substitutes; see DESIGN.md)")
	fmt.Println()
	for _, wl := range workload.Suite {
		fmt.Printf("%-10s %s\n", wl.Name+":", wl.Description)
		fmt.Printf("%-10s shared %d blocks (%.0f%% of refs, %.0f%% stores), private %d blocks/node, migratory %.0f%%\n",
			"", wl.SharedBlocks, 100*wl.SharedFrac, 100*wl.StoreFrac, wl.PrivateBlocks, 100*wl.MigratoryFrac)
		fmt.Println()
	}
}

func complexityJSON() {
	doc := map[string]interface{}{
		"directory": map[string]interface{}{
			"full": directory.ComplexityOf(directory.Full),
			"spec": directory.ComplexityOf(directory.Spec),
		},
		"snooping": map[string]interface{}{
			"full": snoop.ComplexityOf(snoop.Full),
			"spec": snoop.ComplexityOf(snoop.Spec),
		},
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		log.Fatal(err)
	}
}

func complexity() {
	fmt.Println("Controller complexity: full vs speculatively simplified (ablation A1)")
	fmt.Println()
	df := directory.ComplexityOf(directory.Full)
	ds := directory.ComplexityOf(directory.Spec)
	fmt.Printf("directory protocol:\n")
	fmt.Printf("  full: %2d cache states, %2d cache transitions, %2d dir transitions, %2d message kinds\n",
		df.CacheStates, df.CacheTransitions, df.DirTransitions, df.MessageKinds)
	fmt.Printf("  spec: %2d cache states, %2d cache transitions, %2d dir transitions, %2d message kinds\n",
		ds.CacheStates, ds.CacheTransitions, ds.DirTransitions, ds.MessageKinds)
	fmt.Printf("  => speculation removes %d states, %d transitions, %d message kinds\n\n",
		df.CacheStates-ds.CacheStates, df.CacheTransitions-ds.CacheTransitions, df.MessageKinds-ds.MessageKinds)

	sf := snoop.ComplexityOf(snoop.Full)
	ss := snoop.ComplexityOf(snoop.Spec)
	fmt.Printf("snooping protocol:\n")
	fmt.Printf("  full: %2d states, %2d transitions\n", sf.States, sf.Transitions)
	fmt.Printf("  spec: %2d states, %2d transitions\n", ss.States, ss.Transitions)
	fmt.Printf("  => exactly the overlooked corner-case transition differs (paper §3.2)\n")
}
