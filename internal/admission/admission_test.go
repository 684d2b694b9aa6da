package admission

import (
	"math/rand"
	"testing"

	"ftcms/internal/bibd"
	"ftcms/internal/pgt"
)

func TestNewStaticValidation(t *testing.T) {
	if _, err := NewStatic(0, 3, 10, 2); err == nil {
		t.Error("accepted d=0")
	}
	if _, err := NewStatic(7, 0, 10, 2); err == nil {
		t.Error("accepted m=0")
	}
	if _, err := NewStatic(7, 3, 2, 2); err == nil {
		t.Error("accepted q <= f")
	}
	if _, err := NewStatic(7, 3, 2, -1); err == nil {
		t.Error("accepted negative f")
	}
}

func TestStaticDiskCap(t *testing.T) {
	// q=5, f=2: at most 3 clips per disk.
	s, err := NewStatic(4, 3, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	var tickets []Ticket
	for i := 0; i < 3; i++ {
		// Distinct classes so the cell cap (f=2) does not interfere.
		tk, ok := s.Admit(0, 0, i)
		if !ok {
			t.Fatalf("admission %d refused", i)
		}
		tickets = append(tickets, tk)
	}
	if _, ok := s.Admit(0, 0, 0); ok {
		t.Fatal("4th clip on disk 0 admitted; disk cap is 3")
	}
	// Other disks unaffected.
	if !fits(s.Admit(0, 1, 0)) {
		t.Fatal("disk 1 should accept")
	}
	// Release one; disk 0 opens up.
	s.Release(tickets[0])
	if got := s.DiskLoad(0, 0); got != 2 {
		t.Fatalf("DiskLoad(0) after release = %d, want 2", got)
	}
	if !fits(s.Admit(0, 0, 0)) {
		t.Fatal("disk 0 should accept after release")
	}
}

// fits reports whether an Admit succeeded, for tests that only ask
// whether a clip fits.
func fits(_ Ticket, ok bool) bool { return ok }

func TestStaticCellCap(t *testing.T) {
	// f=2: at most 2 clips per (disk, class).
	s, err := NewStatic(4, 3, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok := s.Admit(0, 2, 1); !ok {
			t.Fatalf("admission %d refused", i)
		}
	}
	if _, ok := s.Admit(0, 2, 1); ok {
		t.Fatal("3rd clip in cell admitted; cell cap is 2")
	}
	// Same disk, different class: fine.
	if !fits(s.Admit(0, 2, 0)) {
		t.Fatal("different class should be admissible")
	}
}

// TestStaticRotation: the caps follow the clips as rounds advance — a
// clip admitted on disk 0 at round 0 occupies disk 2 at round 2.
func TestStaticRotation(t *testing.T) {
	d, m := 4, 3
	s, err := NewStatic(d, m, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Admit(0, 0, 0); !ok {
		t.Fatal("refused")
	}
	for now := int64(0); now < 30; now++ {
		wantDisk := int(now) % d
		wantClass := (int(now) / d) % m
		for i := 0; i < d; i++ {
			want := 0
			if i == wantDisk {
				want = 1
			}
			if got := s.DiskLoad(now, i); got != want {
				t.Fatalf("round %d: DiskLoad(%d) = %d, want %d", now, i, got, want)
			}
		}
		if got := s.CellLoad(now, wantDisk, wantClass); got != 1 {
			t.Fatalf("round %d: CellLoad = %d, want 1", now, got)
		}
		// The class the clip is NOT in is empty.
		if got := s.CellLoad(now, wantDisk, (wantClass+1)%m); got != 0 {
			t.Fatalf("round %d: foreign CellLoad = %d, want 0", now, got)
		}
	}
}

// TestStaticLateAdmission: admissions at different rounds interact
// correctly — two clips that will collide on the same (disk, class) phase
// share the cell cap.
func TestStaticLateAdmission(t *testing.T) {
	d, m := 4, 3
	s, err := NewStatic(d, m, 10, 1) // f=1: one clip per cell
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Admit(0, 0, 0); !ok {
		t.Fatal("refused")
	}
	// At round 5 the first clip sits at disk 1, class 1. A new clip
	// starting exactly there must be refused (cell cap 1)...
	if fits(s.Admit(5, 1, 1)) {
		t.Fatal("phase collision not detected")
	}
	// ...but the same (disk, class) start at a different round is a
	// different phase.
	if !fits(s.Admit(6, 1, 1)) {
		t.Fatal("non-colliding admission refused")
	}
}

func TestStaticPanics(t *testing.T) {
	s, _ := NewStatic(4, 3, 5, 2)
	mustPanic(t, func() { s.Admit(0, 4, 0) })
	mustPanic(t, func() { s.Admit(0, 0, 3) })
	mustPanic(t, func() { s.Release(Ticket{phase: 0, row: -1}) }) // nothing admitted
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// TestStaticRandomInvariant: under random admit/release traffic across
// random rounds, per-disk load never exceeds q−f and per-cell load never
// exceeds f — checked exhaustively every step.
func TestStaticRandomInvariant(t *testing.T) {
	d, m, q, f := 7, 3, 9, 3
	s, err := NewStatic(d, m, q, f)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	var tickets []Ticket
	for step := 0; step < 3000; step++ {
		now := int64(step / 3)
		if rng.Intn(3) < 2 || len(tickets) == 0 {
			tk, ok := s.Admit(now, rng.Intn(d), rng.Intn(m))
			if ok {
				tickets = append(tickets, tk)
			}
		} else {
			i := rng.Intn(len(tickets))
			s.Release(tickets[i])
			tickets = append(tickets[:i], tickets[i+1:]...)
		}
		for disk := 0; disk < d; disk++ {
			if got := s.DiskLoad(now, disk); got > q-f {
				t.Fatalf("step %d: disk %d load %d > q−f=%d", step, disk, got, q-f)
			}
			for class := 0; class < m; class++ {
				if got := s.CellLoad(now, disk, class); got > f {
					t.Fatalf("step %d: cell (%d,%d) load %d > f=%d", step, disk, class, got, f)
				}
			}
		}
	}
}

// --- Dynamic ---

func fanoPGT(t *testing.T) *pgt.Table {
	t.Helper()
	des, err := bibd.New(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := pgt.New(des)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestNewDynamicValidation(t *testing.T) {
	if _, err := NewDynamic(nil, 5); err == nil {
		t.Error("accepted nil PGT")
	}
	if _, err := NewDynamic(fanoPGT(t), 0); err == nil {
		t.Error("accepted q=0")
	}
}

// TestDynamicCondition: the §5.2 condition holds for every disk after any
// sequence of admissions, by construction.
func TestDynamicCondition(t *testing.T) {
	tab := fanoPGT(t)
	q := 6
	dy, err := NewDynamic(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	admitted := 0
	var tickets []Ticket
	for step := 0; step < 800; step++ {
		now := int64(step / 2)
		if rng.Intn(4) < 3 || len(tickets) == 0 {
			tk, ok := dy.Admit(now, rng.Intn(7), rng.Intn(3))
			if ok {
				tickets = append(tickets, tk)
				admitted++
			}
		} else {
			i := rng.Intn(len(tickets))
			dy.Release(tickets[i])
			tickets = append(tickets[:i], tickets[i+1:]...)
		}
		for disk := 0; disk < 7; disk++ {
			if load := dy.WorstCaseFailureLoad(now, disk); load > q {
				t.Fatalf("step %d: disk %d worst-case failure load %d > q=%d", step, disk, load, q)
			}
		}
	}
	if admitted == 0 {
		t.Fatal("no admissions at all")
	}
}

// TestDynamicAdmitsMoreThanStaticWhenSkewed: the motivating §5 scenario —
// with static f, a row-skewed workload blocks early even though disk
// bandwidth remains; dynamic reservation keeps admitting.
func TestDynamicAdmitsMoreThanStaticWhenSkewed(t *testing.T) {
	tab := fanoPGT(t)
	q := 9
	// Static with f=1 (r=3, q−f=8: r·f >= q−f fails but that only affects
	// capacity, not safety; use f=2 so 3·2 >= 7).
	f := 2
	st, err := NewStatic(7, 3, q, f)
	if err != nil {
		t.Fatal(err)
	}
	dy, err := NewDynamic(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	// All requests target disk 0, row 0 at round 0 — maximal skew.
	staticCount, dynamicCount := 0, 0
	for i := 0; i < q; i++ {
		if _, ok := st.Admit(0, 0, 0); ok {
			staticCount++
		}
		if _, ok := dy.Admit(0, 0, 0); ok {
			dynamicCount++
		}
	}
	if staticCount != f {
		t.Fatalf("static admitted %d, want f=%d (row cap binds)", staticCount, f)
	}
	if dynamicCount <= staticCount {
		t.Fatalf("dynamic admitted %d, static %d: dynamic should admit more under skew", dynamicCount, staticCount)
	}
}

func TestDynamicRelease(t *testing.T) {
	dy, err := NewDynamic(fanoPGT(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	tk, ok := dy.Admit(0, 2, 1)
	if !ok {
		t.Fatal("refused")
	}
	if dy.DiskLoad(0, 2) != 1 {
		t.Fatal("load accounting wrong")
	}
	dy.Release(tk)
	if dy.DiskLoad(0, 2) != 0 {
		t.Fatal("release accounting wrong")
	}
	mustPanic(t, func() { dy.Release(tk) })
	mustPanic(t, func() { dy.Admit(0, 9, 0) })
	mustPanic(t, func() { dy.Admit(0, 0, 5) })
}

// --- Static with f = 0: the clustered schemes' cap q per unit ---

// TestStaticNoContingency: with f = 0 nothing is reserved, and a unit
// (data disk or cluster) takes q streams whatever their class.
func TestStaticNoContingency(t *testing.T) {
	if _, err := NewStatic(0, 1, 3, 0); err == nil {
		t.Error("accepted zero units")
	}
	if _, err := NewStatic(4, 1, 0, 0); err == nil {
		t.Error("accepted q=0")
	}
	s, err := NewStatic(4, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var tk Ticket
	for i := 0; i < 2; i++ {
		var ok bool
		tk, ok = s.Admit(0, 1, 0)
		if !ok {
			t.Fatalf("admission %d refused", i)
		}
	}
	if _, ok := s.Admit(0, 1, 0); ok {
		t.Fatal("over-admitted unit")
	}
	if got := s.DiskLoad(0, 2); got != 0 {
		t.Fatalf("DiskLoad(0, 2) = %d, want 0", got)
	}
	// Rotation: at round 1 the clips sit at unit 2.
	if got := s.DiskLoad(1, 2); got != 2 {
		t.Fatalf("DiskLoad(1, 2) = %d, want 2", got)
	}
	if got := s.DiskLoad(1, 1); got != 0 {
		t.Fatalf("DiskLoad(1, 1) = %d, want 0", got)
	}
	if err := s.Audit(1); err != nil {
		t.Fatalf("Audit at the cap: %v", err)
	}
	s.Release(tk)
	if got := s.DiskLoad(1, 2); got != 1 {
		t.Fatalf("DiskLoad(1, 2) after release = %d, want 1", got)
	}
	if !fits(s.Admit(0, 1, 0)) {
		t.Fatal("released unit should accept")
	}
	mustPanic(t, func() { s.Admit(0, 7, 0) })

	// With m > 1 the class cap lifts to q as well: one class may take a
	// whole unit, and the unit cap still binds across classes.
	s, err = NewStatic(4, 3, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !fits(s.Admit(0, 2, 1)) {
			t.Fatalf("admission %d to one class refused", i)
		}
	}
	if fits(s.Admit(0, 2, 0)) || fits(s.Admit(0, 2, 1)) {
		t.Fatal("unit admitted past q")
	}
	if got := s.CellLoad(0, 2, 1); got != 3 {
		t.Fatalf("CellLoad = %d, want 3", got)
	}
	if err := s.Audit(0); err != nil {
		t.Fatalf("Audit at the cap: %v", err)
	}
}

// --- Queue ---

func TestQueueFIFO(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d", q.Len())
	}
	// Admit everything: order must be FIFO.
	var got []int
	q.Drain(func(x int) bool { got = append(got, x); return true })
	for i, x := range got {
		if x != i {
			t.Fatalf("drain order %v", got)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d", q.Len())
	}
}

func TestQueueHeadOfLineBlocking(t *testing.T) {
	var q Queue[int] // Bypass = 0
	q.Push(100)      // unadmittable head
	q.Push(1)
	admitted := q.Drain(func(x int) bool { return x < 10 })
	if admitted != 0 {
		t.Fatalf("admitted %d past a blocked head with no bypass", admitted)
	}
	var got []int
	q.Drain(func(x int) bool { got = append(got, x); return true })
	if len(got) != 2 || got[0] != 100 || got[1] != 1 {
		t.Fatalf("queue after blocked drain = %v, want [100 1]", got)
	}
}

func TestQueueBypass(t *testing.T) {
	q := Queue[int]{Bypass: 2}
	q.Push(100) // blocked
	q.Push(1)
	q.Push(200) // blocked
	q.Push(2)
	q.Push(3) // beyond the bypass window once two refusals happened
	admitted := q.Drain(func(x int) bool { return x < 10 })
	// Head refused (1 refusal), 1 admitted, 200 refused (2 refusals),
	// 2 admitted, 3 tried (refusals = 2 <= Bypass) and admitted.
	if admitted != 3 {
		t.Fatalf("admitted %d, want 3", admitted)
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (the two blocked)", q.Len())
	}
}

func TestQueueExpireHead(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 6; i++ {
		q.Push(i)
	}
	// Items pushed in order: an age cutoff is a head prefix.
	n := q.ExpireHead(func(x int) bool { return x < 3 })
	if n != 3 {
		t.Fatalf("expired %d, want 3", n)
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	// Survivors keep FIFO order.
	var got []int
	q.Drain(func(x int) bool { got = append(got, x); return true })
	if len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("post-expiry order %v", got)
	}
	// Empty queue: no-op.
	if n := q.ExpireHead(func(int) bool { return true }); n != 0 {
		t.Fatalf("expired %d from empty queue", n)
	}
}

// TestStaticFailureLoadBound proves the §4.2 failure-load theorem at the
// controller level: for any admitted population and any failed disk, the
// extra reconstruction reads a surviving disk receives are bounded by
// overlap·f, where overlap is the PGT's max column intersection (exactly
// 1 for λ=1 designs — making q−f+f = q the hard guarantee; ≤2 for the
// rotational d=32 approximations).
func TestStaticFailureLoadBound(t *testing.T) {
	for _, cfg := range []struct{ d, p int }{{7, 3}, {32, 2}, {32, 4}, {32, 8}, {32, 16}} {
		des, err := bibd.New(cfg.d, cfg.p)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := pgt.New(des)
		if err != nil {
			t.Fatal(err)
		}
		overlap, err := tab.CheckProperties()
		if err != nil {
			t.Fatal(err)
		}
		q, f := 20, 4
		st, err := NewStatic(cfg.d, tab.R, q, f)
		if err != nil {
			t.Fatal(err)
		}
		// Fill with random admissions.
		rng := rand.New(rand.NewSource(int64(cfg.d*100 + cfg.p)))
		for i := 0; i < 5000; i++ {
			st.Admit(int64(i%17), rng.Intn(cfg.d), rng.Intn(tab.R))
		}
		now := int64(16)
		for failed := 0; failed < cfg.d; failed++ {
			extra := make([]int, cfg.d)
			for row := 0; row < tab.R; row++ {
				n := st.CellLoad(now, failed, row)
				if n == 0 {
					continue
				}
				for _, m := range tab.Disks(tab.Set(row, failed)) {
					if m != failed {
						extra[m] += n
					}
				}
			}
			for i := 0; i < cfg.d; i++ {
				if i == failed {
					continue
				}
				if extra[i] > overlap*f {
					t.Fatalf("(d=%d,p=%d): disk %d gets %d extra reads for failure of %d, bound %d·%d",
						cfg.d, cfg.p, i, extra[i], failed, overlap, f)
				}
				if overlap == 1 && st.DiskLoad(now, i)+extra[i] > q {
					t.Fatalf("(d=%d,p=%d): exact design exceeded q", cfg.d, cfg.p)
				}
			}
		}
	}
}
