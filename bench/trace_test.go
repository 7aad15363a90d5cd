package main

import (
	"math"
	"os"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	// rep [0,100) has two overlapping runs [10,50) and [30,70) on two
	// workers, and a sweep span [80,90) with a child [82,86).
	list := []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "scenario", Start: 10, End: 50},
		{ID: 3, Parent: 1, Layer: "scenario", Start: 30, End: 70},
		{ID: 4, Parent: 1, Layer: "sweep", Start: 80, End: 90},
		{ID: 5, Parent: 4, Layer: "scenario", Start: 82, End: 86},
	}
	got := selfTime(list)
	want := map[string]time.Duration{
		"bench":    100 - 60 - 10, // children cover [10,70) and [80,90)
		"scenario": 40 + 40 + 4,
		"sweep":    10 - 4,
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self(%s) = %d, want %d", l, got[l], w)
		}
	}
}

func TestSpansNilRecorderIsInert(t *testing.T) {
	var s *spans
	id := s.begin(0, "bench", "rep", "")
	s.end(id)
	if id != 0 || s.add(0, "x", "y", "", time.Now(), time.Now()) != 0 || s.snapshot() != nil {
		t.Error("a nil recorder must record nothing")
	}
}

func TestCPUSharesChargeRuntimeToNearestCaller(t *testing.T) {
	text, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	shares, err := cpuShares(string(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"guest":      0.40, // runtime.duffcopy under guest.(*OS).advance
		"cache":      0.20,
		"go_runtime": 0.10, // GC worker: no program frame
		"bench":      0.10, // JSON decoding under the benchmark's client
		"other":      0.10, // a program package with no bucket of its own
		"sweep":      0.015,
		"atomicio":   0.085,
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		if math.Abs(shares[b]-want[b]) > 1e-9 {
			t.Errorf("%s.cpu_share = %g, want %g", b, shares[b], want[b])
		}
		sum += shares[b]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g", sum)
	}
}

func TestParseSampleValue(t *testing.T) {
	for in, want := range map[string]float64{"10ms": 0.01, "1.50s": 1.5, "250us": 250e-6, "3ns": 3e-9} {
		if got, err := parseSampleValue(in); err != nil || math.Abs(got-want) > 1e-15 {
			t.Errorf("parseSampleValue(%q) = %g, %v; want %g", in, got, err, want)
		}
	}
	if _, err := parseSampleValue("runtime.main"); err == nil {
		t.Error("a function name parsed as a sample value")
	}
}
