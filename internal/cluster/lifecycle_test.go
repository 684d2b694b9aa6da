package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"ftcms/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/lifecycle.txt from this run")

// TestLifecycleTrace drives a rep-2 cluster through every membership
// verb — join, drain, a repeated drain, a failure mid-drain, rejoin,
// remove, an AddDisk flip and out-of-range ids — and pins what Stats
// reports after every round against testdata/lifecycle.txt. At most two
// streams are ever open, so no admission anywhere is refused: where a
// failover or a drain move books its bandwidth cannot move the trace.
func TestLifecycleTrace(t *testing.T) {
	c, err := New(Config{Replication: 2, Nodes: []core.Config{node6Config(), node6Config(), node6Config()}})
	if err != nil {
		t.Fatal(err)
	}
	clips := map[string][]byte{}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("clip%d", i)
		clips[name] = clipBytes(int64(300+i), 400_000)
		if err := c.AddClip(name, clips[name]); err != nil {
			t.Fatal(err)
		}
	}
	type play struct {
		st   *Stream
		off  int64
		done bool
	}
	var plays []*play
	open := func(name string) {
		st, err := c.OpenStream(name)
		if err != nil {
			t.Fatalf("round %d: open %s: %v", c.round, name, err)
		}
		plays = append(plays, &play{st: st})
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("round %d: %v", c.round, err)
		}
	}
	script := map[int64]func(){
		1:  func() { open("clip0") },
		2:  func() { open("clip1") },
		5:  func() { _, err := c.JoinNode(node6Config()); must(err) },
		8:  func() { must(c.DrainNode(0)) },
		9:  func() { must(c.DrainNode(0)) },
		11: func() { must(c.FailNode(0)) },
		14: func() { must(c.RejoinNode(0)) },
		20: func() { must(c.AddDisk(3)) },
		40: func() { open("clip2") },
		60: func() { must(c.RemoveNode(servedBy(plays[2].st))) },
		70: func() {
			for _, err := range []error{c.DrainNode(4), c.RemoveNode(-1), c.RejoinNode(99), c.DrainNode(-1), c.RemoveNode(4)} {
				if err == nil {
					t.Fatalf("round %d: out-of-range node id accepted", c.round)
				}
			}
		},
	}
	var b strings.Builder
	for r := int64(0); r < 100; r++ {
		if step, ok := script[r]; ok {
			step()
		}
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		for _, p := range plays {
			if p.done {
				continue
			}
			done, err := readAvailable(t, p.st, clips[p.st.clip], &p.off)
			if err != nil {
				t.Fatalf("round %d: %s: %v", c.round, p.st.clip, err)
			}
			p.done = done
		}
		s := c.Stats()
		fmt.Fprintf(&b, "%d view=%d alive=%d failed=%v draining=%v retired=%v active=%d awaiting=%d failed_over=%d migrate=%d/%d blocks=%d moved=%d\n",
			s.Round, s.ViewVersion, s.Alive, s.FailedNodes, s.Draining, s.Retired, s.Active,
			s.AwaitingFailover, s.FailedOver, s.MigrateDone, s.MigrateTotal, s.MigratedBlocks, s.MigratedStreams)
	}
	if got := c.Stats().Rejected; got != 0 {
		t.Fatalf("Rejected = %d: the script must stay below admission capacity", got)
	}
	for _, p := range plays {
		if !p.done || p.st.err != nil {
			t.Fatalf("%s: done=%v err=%v at offset %d", p.st.clip, p.done, p.st.err, p.off)
		}
	}
	const golden = "testdata/lifecycle.txt"
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := []byte(b.String()); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got %s\nwant %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", golden, len(gl), len(wl))
	}
}
