// Command wrtexperiments runs every experiment in the reproduction index
// (E1–E16, see DESIGN.md) and emits a Markdown report of paper-claim versus
// measured value — the generator behind EXPERIMENTS.md. The experiments
// themselves live in internal/experiments; this command only prints them.
//
// Each experiment's simulations are independent seeded runs, so every
// experiment dispatches its grid through the shared batch runner across
// -jobs workers. Report ordering (and, because runs are per-seed
// deterministic, report content) does not depend on the worker count.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/rtnet/wrtring/internal/experiments"
)

func main() {
	def := experiments.Defaults()
	dur := flag.Int64("dur", def.Dur, "slots per run")
	seed := flag.Uint64("seed", def.Seed, "base seed")
	jobs := flag.Int("jobs", def.Jobs,
		"parallel simulation workers; 1 reproduces the serial run byte-for-byte")
	flag.Parse()
	if err := experiments.Report(os.Stdout, experiments.Params{Seed: *seed, Dur: *dur, Jobs: *jobs}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
