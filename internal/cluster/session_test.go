package cluster

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"ftcms/internal/core"
)

// sessionCluster is the churn shape in miniature: three nodes of 3-disk
// declustered arrays and two clips on two nodes each. "full" is on nodes
// 0 and 1, with its admission cell booked up on both, so every further
// open of it is refused; "x" (two blocks and a short third) is on node 2,
// where it always finds room, and node 0.
func sessionCluster(tb testing.TB) *Cluster {
	tb.Helper()
	cfg := Config{Replication: 2}
	for range 3 {
		cfg.Nodes = append(cfg.Nodes, tinyNodeConfig())
	}
	c, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.AddClip("full", clipBytes(4, 20_000)); err != nil {
		tb.Fatal(err)
	}
	if err := c.AddClip("x", clipBytes(3, 20_000)); err != nil {
		tb.Fatal(err)
	}
	for {
		if _, err := c.OpenStream("full"); err != nil {
			if !errors.Is(err, core.ErrAdmission) {
				tb.Fatal(err)
			}
			return c
		}
	}
}

// session is one churned session: open "x", tick until it has delivered
// and been read through to io.EOF, close.
func session(tb testing.TB, c *Cluster, buf []byte) {
	st, err := c.OpenStream("x")
	if err != nil {
		tb.Fatal(err)
	}
	for read := 0; ; {
		n, err := st.Read(buf)
		read += n
		if errors.Is(err, io.EOF) {
			if read != 20_000 {
				tb.Fatalf("read %d bytes, want 20000", read)
			}
			break
		}
		if err != nil && !errors.Is(err, core.ErrNoData) {
			tb.Fatal(err)
		}
		if err := c.Tick(); err != nil {
			tb.Fatal(err)
		}
	}
	st.Close()
}

// TestSessionAllocs pins what a cluster session costs the heap. An
// admitted session — routing, admission, delivery, the read through to
// io.EOF, finish and close — allocates only the cluster.Stream and the
// core.Stream OpenStream returns; a refused open allocates nothing, and
// its error still reads and unwraps as a cluster-wide admission refusal.
// AllocsPerRun runs at GOMAXPROCS 1, where the node fan-out is a loop;
// the session costs the same at GOMAXPROCS 2, where every tick fans out,
// counted with runtime.MemStats.
func TestSessionAllocs(t *testing.T) {
	c := sessionCluster(t)
	var err error
	if allocs := testing.AllocsPerRun(100, func() { _, err = c.OpenStream("full") }); allocs != 0 {
		t.Errorf("a refused open allocates %v objects, want 0", allocs)
	}
	const want = `cluster: all 2 live replicas of "full" refused: core: admission refused`
	if err == nil || err.Error() != want || !errors.Is(err, core.ErrAdmission) {
		t.Errorf("refusal = %v, want %q wrapping core.ErrAdmission", err, want)
	}
	buf := make([]byte, 64<<10)
	if allocs := testing.AllocsPerRun(100, func() { session(t, c, buf) }); allocs != 2 {
		t.Errorf("an admitted session allocates %v objects, want 2", allocs)
	}
	if allocs := allocsAtProcs(2, 100, func() { session(t, c, buf) }); allocs != 2 {
		t.Errorf("at GOMAXPROCS 2 an admitted session allocates %v objects, want 2", allocs)
	}
	if s := c.Stats(); s.Served != 202 || s.Active != 4 || s.Rejected != 102 {
		t.Errorf("served=%d active=%d rejected=%d, want 202, 4, 102", s.Served, s.Active, s.Rejected)
	}
}

// TestTicksLeaveNoGoroutines is TestSweepsLeaveNoGoroutines for the node
// fan-out: after Tick returns, none of its helpers is left running. The
// rounds with open sessions keep helpers busy; in the idle rounds a
// node's round is shorter than a helper's start, so the caller mostly
// drains every node before its helpers run and they find no work.
func TestTicksLeaveNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	c := sessionCluster(t)
	before := runtime.NumGoroutine()
	buf := make([]byte, 64<<10)
	for range 20 {
		session(t, c, buf)
	}
	for range 200 {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// BenchmarkClusterSession times a churned session's two outcomes on
// sessionCluster: admitted (open, ticks, read to io.EOF, close) and
// refused (an open against full replicas). The node fan-out allocates
// nothing, so allocs/op is the same at every -cpu.
func BenchmarkClusterSession(b *testing.B) {
	b.Run("admitted", func(b *testing.B) {
		c := sessionCluster(b)
		buf := make([]byte, 64<<10)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			session(b, c, buf)
		}
	})
	b.Run("refused", func(b *testing.B) {
		c := sessionCluster(b)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if _, err := c.OpenStream("full"); err == nil {
				b.Fatal("open of a full clip admitted")
			}
		}
	})
}

// referenceCandidates is candidates as it was written with
// sort.SliceStable: active replicas by load, then draining ones by load,
// each stable in placement order.
func referenceCandidates(c *Cluster, reps []int, skip int) []*node {
	var active, draining []*node
	for _, id := range reps {
		n := c.nodes[id]
		if !n.serving() || n.id == skip {
			continue
		}
		if n.draining() {
			draining = append(draining, n)
		} else {
			active = append(active, n)
		}
	}
	byLoad := func(out []*node) {
		sort.SliceStable(out, func(a, b int) bool {
			return out[a].srv.ActiveStreams() < out[b].srv.ActiveStreams()
		})
	}
	byLoad(active)
	byLoad(draining)
	return append(active, draining...)
}

// TestCandidatesOrder holds the routing order to the reference over
// seeded random per-node loads (few distinct values, so ties are common),
// replica lists in random placement order, every mix of active, draining,
// down and retired replicas, with and without a node to skip.
func TestCandidatesOrder(t *testing.T) {
	const nodes = 8
	cfg := Config{Replication: nodes}
	for range nodes {
		cfg.Nodes = append(cfg.Nodes, nodeConfig())
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddClip("x", clipBytes(5, 200_000)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(38))
	var open []*core.Stream
	for trial := range 300 {
		for _, st := range open {
			st.Close()
		}
		open = open[:0]
		for _, n := range c.nodes {
			n.state, n.down = nodeActive, false
			for range rng.Intn(4) {
				st, err := n.srv.OpenStreamAt("x", rng.Int63n(200_000))
				if errors.Is(err, core.ErrAdmission) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				open = append(open, st)
			}
			switch rng.Intn(5) {
			case 1:
				n.state = nodeDraining
			case 2:
				n.down = true
			case 3:
				n.state = nodeRetired
			case 4:
				n.state, n.down = nodeDraining, true
			}
		}
		reps := rng.Perm(nodes)[:1+rng.Intn(nodes)]
		skip := -1
		if trial%2 == 1 {
			skip = reps[rng.Intn(len(reps))]
		}
		got := slices.Clone(c.candidates(reps, skip))
		want := referenceCandidates(c, reps, skip)
		if !slices.Equal(got, want) {
			ids := func(ns []*node) (out []string) {
				for _, n := range ns {
					out = append(out, fmt.Sprintf("%d(load %d draining %v)", n.id, n.srv.ActiveStreams(), n.draining()))
				}
				return out
			}
			t.Fatalf("trial %d: reps %v skip %d: candidates %v, want %v", trial, reps, skip, ids(got), ids(want))
		}
	}
}
