// Command calibrate reruns the Section 3.4 quantum-length calibration
// (Fig. 2) and prints the per-type curves, the lock-duration sweep, and
// the derived best-quantum table.
//
// Usage:
//
//	calibrate [-quick] [-seed N]
package main

import (
	"flag"
	"os"

	"aqlsched/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced measurement windows")
	seed := flag.Uint64("seed", 0xCA11B, "simulation seed")
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Seed = *seed

	res := experiments.Fig2(cfg)
	for _, t := range res.Tables() {
		t.Render(os.Stdout)
	}
}
