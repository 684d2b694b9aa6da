package cluster

import (
	"errors"
	"fmt"
	"testing"

	"ftcms/internal/core"
)

// TestChaosNodeKillMidRound is the cluster acceptance test: with
// replication 2 across 3 nodes, killing one node mid-playback must leave
// every stream of a replicated clip running to byte-exact completion on
// a surviving replica, terminate streams of unreplicated clips with
// ErrStreamLost, and never over-commit any node's per-disk q budget —
// audited every round against each node's own admission checker.
func TestChaosNodeKillMidRound(t *testing.T) {
	c := testCluster(t, 3, 2)

	clips := map[string][]byte{}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("rep%d", i)
		clips[name] = clipBytes(int64(100+i), 45_000+i*7_000)
		if err := c.AddClip(name, clips[name]); err != nil {
			t.Fatal(err)
		}
	}
	clips["solo"] = clipBytes(999, 50_000)
	if err := c.AddClipReplicated("solo", clips["solo"], 1); err != nil {
		t.Fatal(err)
	}

	type play struct {
		st   *Stream
		want []byte
		off  int64
		done bool
	}
	var replicated []*play
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("rep%d", i)
		st, err := c.OpenStream(name)
		if err != nil {
			t.Fatal(err)
		}
		replicated = append(replicated, &play{st: st, want: clips[name]})
	}
	soloSt, err := c.OpenStream("solo")
	if err != nil {
		t.Fatal(err)
	}
	solo := &play{st: soloSt, want: clips["solo"]}

	audit := func() {
		t.Helper()
		for i := 0; i < c.NodeCount(); i++ {
			if !c.nodes[i].serving() {
				continue
			}
			if err := c.NodeServer(i).CheckAdmission(); err != nil {
				t.Fatalf("round %d: node %d over-committed: %v", c.round, i, err)
			}
		}
	}

	drain := func(p *play) {
		t.Helper()
		if p.done {
			return
		}
		done, err := readAvailable(t, p.st, p.want, &p.off)
		if err != nil {
			t.Fatalf("round %d: clip %s at offset %d: %v", c.round, p.st.clip, p.off, err)
		}
		if done {
			if p.off != int64(len(p.want)) {
				t.Fatalf("clip %s: EOF at %d of %d", p.st.clip, p.off, len(p.want))
			}
			p.done = true
		}
	}

	// Play a few rounds so every stream is mid-flight, then kill the node
	// serving the unreplicated clip.
	for r := 0; r < 5; r++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		audit()
		for _, p := range replicated {
			drain(p)
		}
		drain(solo)
	}
	if solo.off == 0 {
		t.Fatal("solo stream has not started; failure would not be mid-playback")
	}
	victim := servedBy(solo.st)
	var moving int
	for _, p := range replicated {
		if servedBy(p.st) == victim {
			moving++
		}
	}
	if err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	t.Logf("killed node %d at round %d: %d replicated streams must move, solo must die", victim, c.round, moving)

	// The unreplicated stream dies with the documented semantics.
	if _, err := solo.st.Read(make([]byte, 512)); !errors.Is(err, core.ErrStreamLost) {
		t.Fatalf("solo read after node loss: %v, want ErrStreamLost", err)
	}
	if !errors.Is(solo.st.err, core.ErrStreamLost) {
		t.Fatalf("solo termination reason = %v, want ErrStreamLost", solo.st.err)
	}

	// Every replicated stream finishes byte-exact on a survivor, with the
	// admission invariant audited every remaining round.
	for r := 0; r < 600; r++ {
		allDone := true
		for _, p := range replicated {
			if !p.done {
				allDone = false
			}
		}
		if allDone {
			break
		}
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		audit()
		for _, p := range replicated {
			drain(p)
			if !p.done && servedBy(p.st) == victim {
				t.Fatalf("round %d: clip %s still served by dead node %d", c.round, p.st.clip, victim)
			}
		}
	}
	for _, p := range replicated {
		if !p.done {
			t.Fatalf("clip %s never completed (offset %d of %d, node %d)",
				p.st.clip, p.off, len(p.want), servedBy(p.st))
		}
		if p.st.err != nil {
			t.Fatalf("clip %s terminated: %v", p.st.clip, p.st.err)
		}
	}

	stats := c.Stats()
	if stats.Served != 4 {
		t.Fatalf("Served = %d, want 4", stats.Served)
	}
	if stats.FailedOver != moving {
		t.Fatalf("FailedOver = %d, want %d", stats.FailedOver, moving)
	}
	if stats.Terminated != 1 {
		t.Fatalf("Terminated = %d, want 1 (the solo stream)", stats.Terminated)
	}
	for i, ns := range stats.Node {
		if i == victim {
			continue
		}
		if ns.Overflows != 0 {
			t.Fatalf("node %d reported %d buffer overflows", i, ns.Overflows)
		}
	}
}
