// Command aqlsweepd serves sweep execution over HTTP/JSON: submit a
// sweep spec (the exact schema aqlsweep -spec parses) as a job, stream
// its per-cell results incrementally, and fetch the finished artifacts
// — byte-identical to what aqlsweep -out emits for the same spec.
//
// The queue is persistent and crash-safe: every job lives in its own
// directory under -data with a fingerprinted manifest and atomic
// per-cell checkpoints, so a killed daemon re-enqueues in-flight jobs
// on restart and resumes them cell by cell. Dispatch is deficit-
// weighted per-user fair share under strict priority classes; SIGTERM
// drains gracefully (running cells finish, jobs re-queue).
//
//	aqlsweepd -data /var/lib/aqlsweepd -addr 127.0.0.1:8466
//	curl -s localhost:8466/v1/jobs -d '{"user":"ada","builtin":"genmix"}'
//	curl -sN localhost:8466/v1/jobs/job-000001/results
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aqlsched/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send request
// headers, so idle or trickling connections cannot pin server goroutines.
const readHeaderTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", "127.0.0.1:8466", "listen address (host:port; port 0 picks a free port)")
	data := flag.String("data", "", "persistent data directory for the job queue (required)")
	jobSlots := flag.Int("job-slots", 1, "jobs executing concurrently")
	workers := flag.Int("workers", 0, "sweep worker goroutines per job (0 = GOMAXPROCS)")
	fleetWorkers := flag.Int("fleet-workers", 0, "goroutines advancing each fleet run's hosts (0 = GOMAXPROCS)")
	runTimeout := flag.Duration("run-timeout", 0, "per-run wall-clock watchdog (0 = none)")
	flag.Parse()

	logger := log.New(os.Stderr, "aqlsweepd: ", log.LstdFlags)
	if *data == "" {
		fmt.Fprintln(os.Stderr, "aqlsweepd: -data is required")
		flag.Usage()
		os.Exit(2)
	}

	s, err := serve.New(serve.Config{
		DataDir:      *data,
		JobSlots:     *jobSlots,
		SweepWorkers: *workers,
		FleetWorkers: *fleetWorkers,
		RunTimeout:   *runTimeout,
		Logf:         logger.Printf,
	})
	if err != nil {
		logger.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("listening on %s (data=%s, job-slots=%d)", ln.Addr(), *data, *jobSlots)

	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		logger.Printf("received %s: draining (running cells finish and stay journaled)", sig)
		// Drain first: it rejects new submissions, stops sweeps at the
		// next cell boundary and wakes result streams so Shutdown's wait
		// for in-flight connections can complete.
		s.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
	}()

	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		logger.Fatal(err)
	}
	logger.Printf("drained; bye")
}
