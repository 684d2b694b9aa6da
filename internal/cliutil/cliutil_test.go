package cliutil

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"ftcms/internal/units"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want units.Bits
	}{
		{"256MB", 256 * units.MB},
		{"2GB", 2 * units.GB},
		{"64KB", 64 * units.KB},
		{"1.5MB", units.Bits(1.5 * float64(units.MB))},
		{" 512MB ", 512 * units.MB},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if err != nil {
			t.Errorf("ParseSize(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseSizeErrors(t *testing.T) {
	for _, in := range []string{"", "256", "256TB", "xMB", "-2GB", "0MB"} {
		if _, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q) accepted", in)
		}
	}
}

func TestHistogram(t *testing.T) {
	cases := []struct {
		samples []int64
		want    string
	}{
		{nil, "[]"},
		{[]int64{4}, "[4:1]"},
		{[]int64{12, 4, 12}, "[4:1 12:2]"},
		{[]int64{0, 0, 7}, "[0:2 7:1]"},
	}
	for _, c := range cases {
		if got := Histogram(c.samples); got != c.want {
			t.Errorf("Histogram(%v) = %q, want %q", c.samples, got, c.want)
		}
	}
}

func TestBucketUS(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int64
	}{
		{0, 1},
		{700 * time.Nanosecond, 1},
		{time.Microsecond, 1},
		{3 * time.Microsecond, 5},
		{10 * time.Microsecond, 10},
		{11 * time.Microsecond, 20},
		{99 * time.Microsecond, 100},
		{130 * time.Microsecond, 200},
		{450 * time.Microsecond, 500},
		{3 * time.Millisecond, 5000},
		{time.Second, 1_000_000},
	}
	for _, c := range cases {
		if got := bucketUS(c.d); got != c.want {
			t.Errorf("bucketUS(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestLatencyHist(t *testing.T) {
	var h LatencyHist
	if got := h.String(); got != "[]" {
		t.Errorf("empty LatencyHist = %q, want []", got)
	}
	h.Observe(40 * time.Microsecond)
	h.Observe(45 * time.Microsecond)
	h.Observe(130 * time.Microsecond)
	if got := h.String(); got != "[50:2 200:1]" {
		t.Errorf("LatencyHist = %q, want [50:2 200:1]", got)
	}
	// Past the window, old samples fall off: fill with one bucket and
	// the early observations must disappear.
	for i := 0; i < latencyWindow; i++ {
		h.Observe(8 * time.Microsecond)
	}
	if got := h.String(); got != "[10:512]" {
		t.Errorf("LatencyHist after wrap = %q, want [10:512]", got)
	}
}

func TestStartProfilingWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := StartProfiling(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: missing or empty after stop (err %v)", filepath.Base(path), err)
		}
	}
	// Nothing requested: stop is still callable and creates nothing.
	stop, err = StartProfiling("", "")
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if _, err := StartProfiling(filepath.Join(dir, "no/such/dir/cpu.prof"), ""); err == nil {
		t.Error("uncreatable -cpuprofile path accepted")
	}
}
