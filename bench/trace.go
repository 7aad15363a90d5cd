package main

import (
	"bufio"
	"errors"
	"fmt"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded from the benchmark's own code, around public calls, and kept
// in memory until the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a top-level span
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"` // daemon job id shared by one request's spans
	Start  int64  `json:"start_ns"`      // since the recorder was created
	End    int64  `json:"end_ns"`
}

// spans records spans; a nil *spans records nothing, so untraced
// repetitions pay only a nil check.
type spans struct {
	t0   time.Time
	mu   sync.Mutex
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil recorder).
func (s *spans) add(parent int, layer, name, req string, start, end time.Time) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.list) + 1
	s.list = append(s.list, span{ID: id, Parent: parent, Layer: layer, Name: name, Req: req,
		Start: int64(start.Sub(s.t0)), End: int64(end.Sub(s.t0))})
	return id
}

// begin opens a span whose end is set by end(id).
func (s *spans) begin(parent int, layer, name, req string) int {
	now := time.Now()
	return s.add(parent, layer, name, req, now, now)
}

func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	s.mu.Lock()
	s.list[id-1].End = int64(time.Since(s.t0))
	s.mu.Unlock()
}

func (s *spans) snapshot() []span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]span(nil), s.list...)
}

// selfTime sums, per layer, each span's duration minus the part of it
// its children cover. Children that overlap each other (parallel
// workers) are counted once, as the union of their intervals.
func selfTime(list []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, sp := range list {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := map[string]time.Duration{}
	for _, sp := range list {
		kids := children[sp.ID]
		sort.Slice(kids, func(i, k int) bool { return kids[i].Start < kids[k].Start })
		covered, reach := int64(0), sp.Start
		for _, c := range kids {
			lo, hi := max(c.Start, reach), min(c.End, sp.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[sp.Layer] += time.Duration(sp.End - sp.Start - covered)
	}
	return out
}

// programLayers are the program packages (internal/<name>) with a CPU
// bucket of their own.
var programLayers = []string{
	"sim", "cache", "hw", "xen", "credit", "guest", "workload", "iodev", "vtrs", "core",
	"cluster", "baselines", "metrics", "scenario", "experiments", "fleet", "sweep", "serve", "atomicio",
}

// cpuBuckets are the layers CPU samples are charged to: the program
// layers; "other", any program package not listed, so the shares always
// sum to one; the benchmark itself; and the Go runtime.
var cpuBuckets = append(append([]string(nil), programLayers...), "other", "bench", "go_runtime")

const modulePrefix = "aqlsched/internal/"

// frameBucket maps one pprof function name to its bucket, or "" for a
// frame outside the program and the benchmark (runtime, standard
// library).
func frameBucket(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	for _, l := range programLayers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// cpuShares buckets the text of `go tool pprof -traces`. Each stack's
// samples go to the bucket of the frame nearest its leaf that belongs to
// the program or the benchmark, so runtime work (memmove, allocation,
// duffcopy) is charged to the layer that asked for it; stacks with no
// such frame (GC workers, the HTTP server's own loop) go to go_runtime.
// A flat profile would instead charge copies to runtime.duffcopy.
func cpuShares(traces string) (map[string]float64, error) {
	byBucket := map[string]float64{}
	total := 0.0
	var cur float64
	var bucket string
	inStack := false
	flush := func() {
		if !inStack {
			return
		}
		if bucket == "" {
			bucket = "go_runtime"
		}
		byBucket[bucket] += cur
		total += cur
		inStack = false
	}
	sc := bufio.NewScanner(strings.NewReader(traces))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		if strings.TrimSpace(line) == "" || !strings.HasPrefix(line, " ") {
			continue // header lines (File:, Type:, ...)
		}
		fields := strings.Fields(line)
		if !inStack {
			if len(fields) < 2 {
				continue
			}
			v, err := parseSampleValue(fields[0])
			if err != nil {
				// A label line ("bytes:[...]") precedes the stack: skip it.
				continue
			}
			cur, bucket, inStack = v, frameBucket(fields[1]), true
			continue
		}
		if bucket == "" {
			bucket = frameBucket(fields[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		out[b] = 0
		if total > 0 {
			out[b] = byBucket[b] / total
		}
	}
	return out, nil
}

// parseSampleValue reads a pprof -traces sample value such as "10ms",
// "1.50s" or "250us" as seconds.
func parseSampleValue(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("not a sample value: %q", s)
}

// pprofTraces runs the toolchain's pprof over the given CPU profiles.
func pprofTraces(files []string) (string, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, files...)...)
	out, err := cmd.Output()
	if err != nil {
		var stderr string
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			stderr = string(ee.Stderr)
		}
		return "", fmt.Errorf("go tool pprof -traces: %v %s", err, stderr)
	}
	return string(out), nil
}
