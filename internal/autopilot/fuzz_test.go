package autopilot

import "testing"

// FuzzController pins the policy by its properties rather than by one
// trace. Each 5-byte record of the input is one signal held for
// 1 + rec[0]%128 rounds, so a short input reaches the 64-round scale-in
// hold:
//
//	rec[1] bits 0–1: rejects; bit 2: Rebuilding; bit 3: Reconfiguring;
//	       bit 4: one more node loss; bit 5: a drain candidate
//	rec[2]: QueueDepth/2          rec[3]: Active of Capacity 256
//	rec[4]: ActiveNodes − (minNodes−1), mod 5
func FuzzController(f *testing.F) {
	f.Add(uint8(2), []byte{
		127, 0, 0, 200, 1, // busy
		8, 1, 0, 200, 1, // rejects: scale-out
		8, 0, 150, 200, 2, // backlog: shed on
		8, 0, 0, 200, 2, // cleared: shed off
		0, 16, 0, 200, 2, // a loss: replace
		127, 32, 0, 10, 3, // idle with a candidate: scale-in
		127, 36, 0, 10, 3, // idle while rebuilding
		0, 16, 0, 10, 3, // a second loss: spares exhausted
		127, 32, 0, 10, 3,
	})
	f.Fuzz(func(t *testing.T, m uint8, data []byte) {
		minNodes := 1 + int(m%6)
		c := New(minNodes)
		cooldown := [numKinds]int64{ScaleOut: scaleOutCooldown, ScaleIn: scaleInCooldown, Replace: replaceCooldown}
		var last [numKinds]int64
		var fired [numKinds]int
		losses, hiFor, loFor := 0, 0, 0
		round := int64(0)
		for ; len(data) >= 5 && round < 1<<14; data = data[5:] {
			rec := data[:5]
			if rec[1]&16 != 0 {
				losses++
			}
			s := Signals{
				Rejects:        int(rec[1] & 3),
				Rebuilding:     rec[1]&4 != 0,
				Reconfiguring:  rec[1]&8 != 0,
				NodeLosses:     losses,
				DrainCandidate: -1,
				QueueDepth:     2 * int(rec[2]),
				Active:         int(rec[3]),
				Capacity:       256,
				ActiveNodes:    minNodes - 1 + int(rec[4]%5),
			}
			if rec[1]&32 != 0 {
				s.DrainCandidate = s.ActiveNodes - 1
			}
			for n := 1 + int(rec[0]%128); n > 0; n-- {
				s.Round = round
				round++
				if s.QueueDepth >= 256 {
					hiFor++
				} else {
					hiFor = 0
				}
				if s.QueueDepth <= 32 {
					loFor++
				} else {
					loFor = 0
				}
				before := c.Status().Actions
				a, ok := c.Observe(s)
				if n := c.Status().Actions - before; n != btoi(ok) {
					t.Fatalf("round %d: %d actions recorded for one observation", s.Round, n)
				}
				if !ok {
					continue
				}
				k := a.Kind
				if fired[k] > 0 && a.Round-last[k] < cooldown[k] {
					t.Fatalf("%v at round %d, %d rounds after the last, inside its cooldown %d", k, a.Round, a.Round-last[k], cooldown[k])
				}
				last[k] = a.Round
				fired[k]++
				switch k {
				case ScaleIn:
					if s.Rebuilding || s.Reconfiguring || s.NodeLosses > fired[Replace] || s.ActiveNodes <= minNodes {
						t.Fatalf("scale-in at round %d despite an interlock: %+v", a.Round, s)
					}
				case ScaleOut:
					if s.ActiveNodes >= minNodes+2 {
						t.Fatalf("scale-out at round %d with %d active nodes, floor %d", a.Round, s.ActiveNodes, minNodes)
					}
				case Replace:
					if fired[Replace] > 1 {
						t.Fatalf("second replace at round %d: one spare", a.Round)
					}
				case ShedStart:
					if hiFor < 4 {
						t.Fatalf("shed started at round %d after %d rounds of backlog ≥ 256", a.Round, hiFor)
					}
				case ShedStop:
					if loFor < 4 {
						t.Fatalf("shed stopped at round %d after %d rounds of backlog ≤ 32", a.Round, loFor)
					}
				}
				if c.Shedding() != (fired[ShedStart] > fired[ShedStop]) {
					t.Fatalf("round %d: shedding=%v after %d starts and %d stops", a.Round, c.Shedding(), fired[ShedStart], fired[ShedStop])
				}
			}
		}
	})
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
