// Command aqlsweep executes a scenario × policy × seed sweep on a
// bounded worker pool and emits aggregate artifacts (JSON, CSV, text
// table). Sweeps come from a JSON spec file or a built-in name;
// results are bit-identical for any -workers value.
//
// Usage:
//
//	aqlsweep -spec fig8 -workers 8 -out out/
//	aqlsweep -spec mysweep.json -seeds 5 -quick
//	aqlsweep -resume out/fig8.journal
//	aqlsweep -list
//
// With -out, every completed run is checkpointed to a crash-safe
// journal (<out>/<name>.journal/). After a crash or kill, -resume
// <journal-dir> rebuilds the same sweep from the journal's manifest,
// skips the journaled runs, and emits artifacts byte-identical to an
// uninterrupted run's.
//
// Spec files look like:
//
//	{
//	  "name": "grid",
//	  "topologies": {"dual-8": {"sockets": 2, "cores_per_socket": 8, "llc_mb": 12}},
//	  "scenarios": [
//	    "S1", "four-socket",
//	    {"name": "S5", "topology": "dual-8"},
//	    {"gen": {"vcpus": 32, "oversub": 4, "topology": "dual-8",
//	             "mix": {"IOInt": 0.25, "ConSpin": 0.25, "LLCF": 0.5},
//	             "apps": ["bzip2"]}}
//	  ],
//	  "policies": ["xen", "aql", "vturbo", "fixed:10ms"],
//	  "baseline": "xen-credit",
//	  "seeds": 3,
//	  "warmup_ms": 1000,
//	  "measure_ms": 2500
//	}
//
// Every name resolves through the internal/catalog tables; -list
// prints them. Progress goes to stderr; the aggregate table goes to
// stdout.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"aqlsched/internal/catalog"
	"aqlsched/internal/fleet"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sweep"
)

func main() {
	var (
		specArg     = flag.String("spec", "", "sweep spec: JSON file path or built-in name (see -list)")
		list        = flag.Bool("list", false, "list the catalog (topologies, scenarios, workloads, policies) and built-in sweeps, then exit")
		listMetrics = flag.Bool("list-metrics", false, "list the metric registry (name, unit, direction, aggregation, scope), then exit")
		metricsSel  = flag.String("metrics", "", "comma-separated metric names to emit (default: all; see -list-metrics)")
		workers     = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		fleetWork   = flag.Int("fleet-workers", 0, "goroutines advancing each fleet run's hosts at every epoch barrier (0 = GOMAXPROCS; results are byte-identical at any value)")
		out         = flag.String("out", "", "output directory for <name>.json/.csv/.txt artifacts (also enables the crash-safe run journal)")
		resume      = flag.String("resume", "", "resume an interrupted sweep from its journal directory (<out>/<name>.journal); journaled runs are skipped")
		runTimeout  = flag.Duration("run-timeout", 10*time.Minute, "per-run watchdog: a run still executing after this is marked FAILED (0 disables)")
		seeds       = flag.Int("seeds", 0, "override seed replications per cell")
		seed        = flag.Uint64("seed", 0, "override the base simulation seed")
		quick       = flag.Bool("quick", false, fmt.Sprintf("quick windows (%gs warmup, %gs measure)", sweep.QuickWarmup.Seconds(), sweep.QuickMeasure.Seconds()))
		allowFailed = flag.Bool("allow-failed", false, "exit 0 even when runs or cells failed (failures still print and mark the artifacts)")
		quiet       = flag.Bool("q", false, "suppress per-run progress on stderr")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile (after the sweep) to this file")
		traceFile  = flag.String("trace", "", "write a runtime execution trace of the sweep to this file")
	)
	flag.Parse()

	if *list {
		printCatalog(os.Stdout)
		return
	}
	if *listMetrics {
		printMetrics(os.Stdout)
		return
	}
	// Validate the metric selection before the sweep runs: a typo must
	// fail in milliseconds, not after minutes of simulation.
	selection, err := parseMetricSelection(*metricsSel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aqlsweep: %v\n", err)
		os.Exit(2)
	}
	var (
		spec    *sweep.Spec
		journal *sweep.Journal
		outDir  = *out
	)
	if *resume != "" {
		// A resume rebuilds the sweep entirely from the journal's
		// manifest — combining it with grid-shaping flags would silently
		// change which runs the journaled indexes mean.
		for _, f := range []string{"spec", "seeds", "seed", "quick"} {
			if flagSet(f) {
				fmt.Fprintf(os.Stderr, "aqlsweep: -resume rebuilds the sweep from the journal; -%s cannot be combined with it\n", f)
				os.Exit(2)
			}
		}
		var err error
		spec, journal, err = resumeSweep(*resume)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aqlsweep: %v\n", err)
			os.Exit(2)
		}
		if outDir == "" {
			// Artifacts land next to the journal, where the interrupted
			// invocation would have put them.
			outDir = filepath.Dir(filepath.Clean(*resume))
		}
		fmt.Fprintf(os.Stderr, "aqlsweep: resuming %s from %s: %d/%d runs already journaled, skipping them\n",
			spec.Name, *resume, journal.RestoredCount(), len(spec.Runs()))
	} else {
		if *specArg == "" {
			fmt.Fprintln(os.Stderr, "aqlsweep: -spec is required (file path or built-in name; -list shows built-ins)")
			os.Exit(2)
		}
		src, builtin, err := readSpecArg(*specArg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aqlsweep: %v\n", err)
			os.Exit(2)
		}
		if *seed == 0 && flagSet("seed") {
			// BaseSeed 0 means "default" throughout the sweep layer, so an
			// explicit zero cannot be honored — say so instead of silently
			// running with 0xA91.
			fmt.Fprintf(os.Stderr, "aqlsweep: -seed 0 is reserved for the default; running with base seed %#x\n", sweep.DefaultSeed)
		}
		var m sweep.Manifest
		spec, m, err = sweep.Resolve(src, builtin, *seeds, *seed, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aqlsweep: %v\n", err)
			os.Exit(2)
		}
		if outDir != "" {
			journal, err = sweep.CreateJournal(filepath.Join(outDir, spec.Name+".journal"), m)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aqlsweep: %v\n", err)
				os.Exit(2)
			}
		}
	}

	opts := sweep.Options{Workers: *workers, FleetWorkers: *fleetWork, Journal: journal, RunTimeout: *runTimeout}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	runs := len(spec.Runs())
	header := fmt.Sprintf("aqlsweep: %s — %d runs (%d scenarios x %d policies x %d seeds), workers=%d",
		spec.Name, runs, len(spec.Scenarios), len(spec.Policies), max(spec.Seeds, 1), opts.EffectiveWorkers())
	if opts.FleetWorkers > 0 {
		header += fmt.Sprintf(", fleet-workers=%d", opts.FleetWorkers)
	}
	fmt.Fprintln(os.Stderr, header)

	// Start profiling only once the sweep is actually about to run, so
	// argument errors never leave truncated profile files behind; flush
	// on every exit path after this point.
	stopProfiling, err := startProfiling(*cpuprofile, *memprofile, *traceFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aqlsweep: %v\n", err)
		os.Exit(2)
	}
	defer stopProfiling()

	start := time.Now()
	res, err := sweep.Exec(spec, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aqlsweep: %v\n", err)
		stopProfiling()
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "aqlsweep: completed %d runs in %v\n", runs, time.Since(start).Round(time.Millisecond))

	if len(selection) > 0 {
		if err := res.SelectMetrics(selection...); err != nil {
			fmt.Fprintf(os.Stderr, "aqlsweep: %v\n", err)
			stopProfiling()
			os.Exit(2)
		}
	}
	res.Table().Render(os.Stdout)

	if outDir != "" {
		if err := writeArtifacts(res, outDir); err != nil {
			fmt.Fprintf(os.Stderr, "aqlsweep: %v\n", err)
			stopProfiling()
			os.Exit(1)
		}
	}
	// Failures must be visible in the exit status, not only inside the
	// artifacts: any failed run (and a fortiori any all-failed FAILED
	// cell) exits non-zero so CI and scripts catch it. -allow-failed is
	// the escape hatch for sweeps where partial grids are expected.
	if f, fc := res.Failed(), res.FailedCells(); f > 0 {
		msg := fmt.Sprintf("aqlsweep: %d run(s) failed", f)
		if fc > 0 {
			msg += fmt.Sprintf(", %d cell(s) FAILED entirely", fc)
		}
		if *allowFailed {
			fmt.Fprintln(os.Stderr, msg+" (-allow-failed: exiting 0)")
			return
		}
		fmt.Fprintln(os.Stderr, msg)
		stopProfiling()
		os.Exit(1)
	}
}

// printCatalog lists every name a spec file may reference: registered
// topologies, scenarios, workloads, the policy grammar, and the
// built-in sweeps.
func printCatalog(w io.Writer) {
	fmt.Fprintln(w, "topologies (spec files may also define their own under \"topologies\"):")
	for _, n := range catalog.Topologies.Names() {
		t, err := catalog.TopologyByName(n)
		if err != nil {
			// A registered name that fails to build is a broken
			// registration — surface it instead of silently hiding the
			// entry from the listing.
			fmt.Fprintf(w, "  %-16s BROKEN: %v\n", n, err)
			continue
		}
		fmt.Fprintf(w, "  %-16s %d socket(s) x %d cores, %s LLC/socket\n",
			n, t.Sockets, t.CoresPerSocket, fmtCacheSize(t.LLC.Size))
	}

	fmt.Fprintln(w, "\nscenarios (plus generated ones via {\"gen\": {...}} entries):")
	fmt.Fprintf(w, "  %s\n", strings.Join(catalog.Scenarios.Names(), " "))

	fmt.Fprintln(w, "\nworkloads (for \"apps\" lists in generator blocks):")
	fmt.Fprintf(w, "  %s\n", strings.Join(catalog.Workloads.Names(), " "))

	fmt.Fprintln(w, "\npolicies (strings like \"fixed:5ms\", or {\"policy\": {\"name\": ..., \"params\": {...}}} spec-file blocks):")
	for _, d := range catalog.PolicyPlugins() {
		fmt.Fprintf(w, "  %-16s %s\n", d.Name, d.Help)
		if len(d.Aliases) > 0 {
			fmt.Fprintf(w, "  %-16s aliases: %s\n", "", strings.Join(d.Aliases, ", "))
		}
		for _, p := range d.Params {
			fmt.Fprintf(w, "  %-16s %s\n", "", fmtPolicyParam(p, d.Positional))
		}
	}

	fmt.Fprintln(w, "\nplacements (for {\"fleet\": {...}} scenario entries):")
	fmt.Fprintf(w, "  %s\n", strings.Join(fleet.Placements.Names(), " "))

	fmt.Fprintln(w, "\nbuilt-in sweeps:")
	for _, n := range sweep.BuiltinNames() {
		s, _ := sweep.Builtin(n)
		fmt.Fprintf(w, "  %-14s %d scenarios x %d policies x %d seeds\n",
			n, len(s.Scenarios), len(s.Policies), max(s.Seeds, 1))
	}

	fmt.Fprintln(w, "\nmetrics: -list-metrics prints the measurement registry; -metrics name,... selects emitted columns.")
	fmt.Fprintln(w, "\nSee EXPERIMENTS.md \"Authoring custom scenarios\" for the spec-file schema.")
}

// fmtPolicyParam renders one policy parameter line for -list: name,
// kind/hint, bounds, default, and whether it may be spelled bare
// ("fixed:5ms" instead of "fixed:q=5ms").
func fmtPolicyParam(p scenario.ParamDesc, positional string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s=%s (%s", p.Name, p.GrammarHint(), p.Kind)
	if p.Min != "" || p.Max != "" {
		min, max := p.Min, p.Max
		if min == "" {
			min = "-"
		}
		if max == "" {
			max = "-"
		}
		fmt.Fprintf(&b, " in [%s, %s]", min, max)
	}
	if p.Required {
		b.WriteString(", required")
	} else if p.Default != "" {
		fmt.Fprintf(&b, ", default %s", p.Default)
	} else {
		b.WriteString(", optional")
	}
	if p.Name == positional {
		b.WriteString(", positional")
	}
	b.WriteString(")")
	if p.Help != "" {
		b.WriteString(": ")
		b.WriteString(p.Help)
	}
	return b.String()
}

// printMetrics lists the measurement registry: every metric the
// scenario layer can record, in registration order (the column order
// of emitted artifacts).
func printMetrics(w io.Writer) {
	fmt.Fprintln(w, "metrics (registration order = artifact column order; select with -metrics name,name,...):")
	fmt.Fprintf(w, "  %-22s %-8s %-9s %-11s %-8s %s\n", "NAME", "UNIT", "DIRECTION", "AGGREGATION", "SCOPE", "DESCRIPTION")
	for _, d := range catalog.MetricDescs() {
		name := d.Name
		if d.Primary {
			name += "*"
		}
		fmt.Fprintf(w, "  %-22s %-8s %-9s %-11s %-8s %s\n",
			name, d.Unit, d.Direction.String(), d.Agg.String(), d.Scope.String(), d.Help)
	}
	fmt.Fprintln(w, "\n* primary performance metric (the value baseline normalization pairs)")
}

// parseMetricSelection splits and validates a -metrics argument
// against the registry before any simulation runs.
func parseMetricSelection(arg string) ([]string, error) {
	if arg == "" {
		return nil, nil
	}
	var names []string
	for _, n := range strings.Split(arg, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if _, err := catalog.MetricByName(n); err != nil {
			return nil, err
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-metrics %q selects nothing", arg)
	}
	return names, nil
}

// fmtCacheSize renders a cache capacity adaptively: whole or
// fractional MB above 1 MB, KB below it — a 512 KB LLC must not print
// as "0 MB".
func fmtCacheSize(bytes int64) string {
	const mb = 1024 * 1024
	if bytes >= mb {
		if bytes%mb == 0 {
			return fmt.Sprintf("%d MB", bytes/mb)
		}
		return fmt.Sprintf("%.1f MB", float64(bytes)/mb)
	}
	return fmt.Sprintf("%d KB", bytes/1024)
}

// startProfiling arms the requested profilers and returns an idempotent
// stop function that flushes them (deferred on the normal path, called
// explicitly before os.Exit).
func startProfiling(cpuprofile, memprofile, traceFile string) (func(), error) {
	var stops []func()
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "aqlsweep: wrote CPU profile to %s\n", cpuprofile)
		})
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return nil, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() {
			trace.Stop()
			f.Close()
			fmt.Fprintf(os.Stderr, "aqlsweep: wrote execution trace to %s\n", traceFile)
		})
	}
	if memprofile != "" {
		// Create eagerly so a bad path fails before the sweep runs, but
		// write at stop time (the profile must cover the whole sweep).
		f, err := os.Create(memprofile)
		if err != nil {
			return nil, err
		}
		stops = append(stops, func() {
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "aqlsweep: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "aqlsweep: wrote allocation profile to %s\n", memprofile)
		})
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		for _, stop := range stops {
			stop()
		}
	}, nil
}

// flagSet reports whether the named flag was explicitly passed.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// readSpecArg turns -spec into a sweep source: the bytes of an on-disk
// spec file (a regular file: a directory named like a built-in is not a
// spec), otherwise the argument as a built-in name.
func readSpecArg(arg string) ([]byte, string, error) {
	if fi, err := os.Stat(arg); err == nil && fi.Mode().IsRegular() {
		data, err := os.ReadFile(arg)
		return data, "", err
	}
	return nil, arg, nil
}

// resumeSweep reopens a journal and rebuilds the exact sweep it was
// created for from the manifest's embedded spec source and overrides.
func resumeSweep(dir string) (*sweep.Spec, *sweep.Journal, error) {
	j, m, err := sweep.OpenJournal(dir)
	if err != nil {
		return nil, nil, err
	}
	spec, err := m.Rebuild()
	if err != nil {
		return nil, nil, fmt.Errorf("journal %s: %v", dir, err)
	}
	return spec, j, nil
}

// writeArtifacts emits <name>.json, <name>.csv and <name>.txt into dir
// through the sweep package's atomic emit path (shared with aqlsweepd).
func writeArtifacts(res *sweep.Result, dir string) error {
	paths, err := res.WriteArtifacts(dir)
	if err != nil {
		return err
	}
	for _, p := range paths {
		fmt.Fprintf(os.Stderr, "aqlsweep: wrote %s\n", p)
	}
	return nil
}
