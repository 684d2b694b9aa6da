package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"ftcms/internal/integrity"
)

// model is the array kept the obvious way — per disk, a map from block
// number to bytes, a second one to checksums and a set of owed blocks —
// with the semantics the package comment promises. FuzzArrayModel holds
// the record store to it.
type model struct {
	data   []map[int64][]byte
	sums   []map[int64]uint32
	owed   []map[int64]bool
	state  []DiskState
	extent int64
}

var errOther = errors.New("some other error")

// class reduces an error to the sentinel it wraps.
func class(err error) error {
	for _, e := range []error{ErrFailed, ErrNotWritten, ErrCorruptBlock} {
		if errors.Is(err, e) {
			return e
		}
	}
	if err != nil {
		return errOther
	}
	return nil
}

func newModel(d int) *model {
	m := &model{data: make([]map[int64][]byte, d), sums: make([]map[int64]uint32, d), owed: make([]map[int64]bool, d),
		state: make([]DiskState, d)}
	for i := range m.data {
		m.data[i], m.sums[i], m.owed[i] = map[int64][]byte{}, map[int64]uint32{}, map[int64]bool{}
	}
	return m
}

// replace swaps the disk's medium: every block it held is owed, as is
// every block it owed already.
func (m *model) replace(disk int) {
	for b := range m.data[disk] {
		m.owed[disk][b] = true
	}
	m.data[disk], m.sums[disk] = map[int64][]byte{}, map[int64]uint32{}
}

// nextOwed is the lowest owed block of the disk at or after from, or -1.
func (m *model) nextOwed(disk int, from int64) int64 {
	next := int64(-1)
	for b := range m.owed[disk] {
		if b >= from && (next < 0 || b < next) {
			next = b
		}
	}
	return next
}

func (m *model) inRange(disk int) bool { return disk >= 0 && disk < len(m.data) }

func (m *model) write(disk int, block int64, b []byte) error {
	switch {
	case !m.inRange(disk):
		return errOther
	case m.state[disk] == Failed:
		return ErrFailed
	}
	m.data[disk][block] = bytes.Clone(b)
	m.sums[disk][block] = integrity.Sum(b)
	delete(m.owed[disk], block)
	m.extent = max(m.extent, block+1)
	return nil
}

// verify is the checksum comparison every read and the audit make.
func (m *model) verify(disk int, block int64) bool {
	return integrity.Sum(m.data[disk][block]) == m.sums[disk][block]
}

func (m *model) read(disk int, block int64, zero bool) ([]byte, error) {
	switch {
	case !m.inRange(disk):
		return nil, errOther
	case m.state[disk] == Failed:
		return nil, ErrFailed
	}
	b, ok := m.data[disk][block]
	switch {
	case !ok && zero && m.state[disk] == Healthy:
		b = make([]byte, 16)
	case !ok:
		return nil, ErrNotWritten
	case !m.verify(disk, block):
		return nil, ErrCorruptBlock
	}
	return b, nil
}

func (m *model) corrupt(disk int, block int64, bits []uint64) error {
	switch {
	case !m.inRange(disk):
		return errOther
	case m.state[disk] == Failed:
		return ErrFailed
	case m.data[disk][block] == nil:
		return ErrNotWritten
	}
	flip := map[uint64]bool{} // each distinct position once
	for _, b := range bits {
		flip[b%(16*8)] = true
	}
	for b := range flip {
		m.data[disk][block][b/8] ^= 1 << (b % 8)
	}
	return nil
}

// blocks lists the disk's written blocks, ascending.
func (m *model) blocks(disk int) []int64 {
	var out []int64
	for b := range m.data[disk] {
		out = append(out, b)
	}
	slices.Sort(out)
	return out
}

func (m *model) audit() [][2]int64 {
	var bad [][2]int64
	for disk := range m.data {
		if m.state[disk] == Failed {
			continue
		}
		for _, b := range m.blocks(disk) {
			if !m.verify(disk, b) {
				bad = append(bad, [2]int64{int64(disk), b})
			}
		}
	}
	return bad
}

// Scripts are four bytes an op: kind, disk, block, argument.
const (
	opWrite = iota
	opRead
	opReadZero
	opFail
	opReplace
	opRejoin
	opCorruptBits
	opCorruptRandom
	opAudit
	opLend
	opPeek
	opReserve
	nOps
)

// FuzzArrayModel runs an op script against the array and the model and
// demands the same errors (by errors.Is), the same bytes, the same
// Written/NextOwed/OwedBlocks/Extent/WrittenBlocks/State after every op,
// the same CorruptRandomBlock pick and the
// same AuditChecksums order. An owed block never reads as zeroes, and a
// disk that owes blocks never rejoins. Every slice Lend hands out must
// keep, after every later op, the bytes it had when it was lent. Peek
// sees what a read would, and Probe answers as the read but for the
// checksum; Reserve offers a slot's kept buffer wherever Write would write —
// none for a lent one, whose loan keeps the old — and Install of the bytes
// built in it is Write of them.
func FuzzArrayModel(f *testing.F) {
	// What integrity.Map's own tests pinned, as the array shows it.
	// Record, verify, a flipped bit is caught, an overwrite re-records:
	f.Add([]byte{opWrite, 0, 7, 1, opRead, 0, 7, 0, opCorruptBits, 0, 7, 100, opRead, 0, 7, 0, opWrite, 0, 7, 2, opRead, 0, 7, 0})
	// Keys are independent: the same block number on two disks, one rots.
	f.Add([]byte{opWrite, 0, 0, 1, opWrite, 1, 0, 2, opCorruptBits, 1, 0, 9, opRead, 0, 0, 0, opRead, 1, 0, 0, opAudit, 0, 0, 0})
	// Dropping a disk forgets its sums and nobody else's, and a block the
	// spare never saw written has no sum to fail: the rotten block 9 of
	// disk 2 reads as absent after Replace, and rewrites verify.
	f.Add([]byte{opWrite, 2, 1, 1, opWrite, 2, 9, 1, opWrite, 3, 1, 1, opCorruptBits, 2, 9, 5, opFail, 2, 0, 0, opReplace, 2, 0, 0,
		opRead, 2, 9, 0, opReadZero, 2, 9, 0, opWrite, 2, 9, 3, opRead, 2, 9, 0, opRead, 3, 1, 0, opRejoin, 2, 0, 0, opReadZero, 2, 1, 0, opAudit, 0, 0, 0})
	// Lifecycle edges: a rejoin refused until the last owed block is back,
	// the picker on an empty, a failed and an emptied disk, out-of-range
	// disks.
	f.Add([]byte{opCorruptRandom, 1, 0, 3, opWrite, 1, 9, 1, opWrite, 1, 3, 1, opWrite, 1, 7, 1, opCorruptRandom, 1, 0, 1, opRead, 1, 7, 0,
		opFail, 1, 0, 0, opCorruptRandom, 1, 0, 0, opReplace, 1, 0, 0, opRejoin, 1, 0, 0, opCorruptRandom, 1, 0, 0, opWrite, 1, 3, 2,
		opWrite, 1, 7, 2, opRejoin, 1, 0, 0, opWrite, 1, 9, 2, opRejoin, 1, 0, 0, opReplace, 1, 0, 0,
		opWrite, 4, 0, 0, opRead, 4, 0, 0, opFail, 4, 0, 0})
	// A lent block outlives a flip, an overwrite and two medium swaps, and
	// each of them shows on the next read instead.
	f.Add([]byte{opWrite, 1, 4, 1, opLend, 1, 4, 0, opCorruptBits, 1, 4, 9, opLend, 1, 4, 0, opWrite, 1, 4, 2, opLend, 1, 4, 0,
		opWrite, 1, 4, 3, opLend, 1, 4, 0, opFail, 1, 0, 0, opLend, 1, 4, 0, opReplace, 1, 0, 0, opLend, 1, 4, 0,
		opWrite, 1, 4, 5, opLend, 1, 4, 0, opFail, 1, 0, 0, opReplace, 1, 0, 0, opLend, 1, 4, 0, opWrite, 1, 4, 6, opRead, 1, 4, 0})
	// A swap keeps each slot's buffer and nothing else: on the spare a
	// written block reads, flips and audits as absent, a rewrite reads back
	// its new bytes (a lent block's too, while its loan keeps the old), and
	// a second swap owes the rewrites again.
	f.Add([]byte{opWrite, 1, 2, 1, opWrite, 1, 6, 1, opLend, 1, 6, 0, opFail, 1, 0, 0, opReplace, 1, 0, 0, opRead, 1, 2, 0,
		opCorruptBits, 1, 2, 3, opAudit, 0, 0, 0, opWrite, 1, 2, 4, opRead, 1, 2, 0, opWrite, 1, 6, 5, opLend, 1, 6, 0,
		opRejoin, 1, 0, 0, opReadZero, 1, 9, 0, opFail, 1, 0, 0, opReplace, 1, 0, 0, opReadZero, 1, 2, 0, opWrite, 1, 2, 6,
		opRead, 1, 2, 0, opRejoin, 1, 0, 0, opAudit, 0, 0, 0})
	// Replace then write back only some blocks: the rest stay owed, never
	// zeroes, the disk cannot rejoin, and the picker only sees the
	// rewritten one.
	f.Add([]byte{opWrite, 0, 1, 1, opWrite, 0, 3, 2, opWrite, 0, 5, 3, opFail, 0, 0, 0, opReplace, 0, 0, 0, opWrite, 0, 3, 7,
		opReadZero, 0, 1, 0, opRead, 0, 3, 0, opCorruptRandom, 0, 0, 9, opRead, 0, 3, 0, opWrite, 0, 3, 8, opRejoin, 0, 0, 0, opRead, 0, 5, 0})
	// A rebuild's three passes: Probe and Peek a survivor, before and
	// after it rots; build owed blocks in their reserved buffers, a lent
	// one's fresh, and install them. A failed disk reserves nothing, and a
	// block no disk held is built as a write's.
	f.Add([]byte{opWrite, 0, 3, 1, opWrite, 1, 3, 2, opWrite, 1, 5, 3, opLend, 1, 5, 0, opFail, 1, 0, 0, opReserve, 1, 3, 9, opReplace, 1, 0, 0,
		opPeek, 0, 3, 0, opCorruptBits, 0, 3, 7, opPeek, 0, 3, 0, opReserve, 1, 3, 9, opReserve, 1, 5, 9, opReserve, 1, 3, 9,
		opRejoin, 1, 0, 0, opWrite, 1, 5, 4, opRejoin, 1, 0, 0, opRead, 1, 3, 0, opPeek, 1, 5, 0, opReserve, 2, 3, 0})
	for seed := int64(1); seed <= 4; seed++ {
		script := make([]byte, 4*400)
		rand.New(rand.NewSource(seed)).Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		const d, bs, nblocks = 4, 16, 12
		a, err := NewArray(d, bs)
		if err != nil {
			t.Fatal(err)
		}
		m := newModel(d)
		var lent, kept [][]byte // what Lend returned, and a copy taken then
		for i := 0; i+4 <= len(script); i += 4 {
			op, disk, block, arg := script[i]%nOps, int(script[i+1]%(d+1)), int64(script[i+2]%nblocks), script[i+3]
			bits := []uint64{uint64(arg), uint64(arg)*37 + 5, uint64(arg) + 16*8}
			var got, want error
			dst, sentinel := bytes.Repeat([]byte{0xAA}, bs), bytes.Repeat([]byte{0xAA}, bs)
			switch op {
			case opWrite:
				b := bytes.Repeat([]byte{arg}, bs)
				b[0] = byte(block)
				got, want = a.Write(disk, block, b), m.write(disk, block, b)
			case opRead, opReadZero:
				if op == opRead {
					got = a.ReadInto(disk, block, dst)
				} else {
					got = a.ReadZeroInto(disk, block, dst)
				}
				var b []byte
				if b, want = m.read(disk, block, op == opReadZero); want != nil {
					b = sentinel // a refused read leaves dst alone
				}
				if !bytes.Equal(dst, b) {
					t.Fatalf("op %d: read (%d, %d) = %v, model %v", i/4, disk, block, dst, b)
				}
				if m.inRange(disk) && m.owed[disk][block] && got == nil {
					t.Fatalf("op %d: owed block (%d, %d) read as %v", i/4, disk, block, dst)
				}
			case opFail:
				if got = a.Fail(disk); m.inRange(disk) {
					m.state[disk] = Failed
				} else {
					want = errOther
				}
			case opReplace, opRejoin:
				from, to, do := Failed, Rebuilding, a.Replace
				if op == opRejoin {
					from, to, do = Rebuilding, Healthy, a.Rejoin
				}
				if got = do(disk); !m.inRange(disk) || m.state[disk] != from || op == opRejoin && len(m.owed[disk]) > 0 {
					want = errOther
				} else {
					m.state[disk] = to
					if op == opReplace {
						m.replace(disk)
					}
				}
			case opCorruptBits:
				got, want = a.CorruptBits(disk, block, bits), m.corrupt(disk, block, bits)
			case opCorruptRandom:
				var hit, pick int64
				hit, got = a.CorruptRandomBlock(disk, uint64(arg), bits)
				if !m.inRange(disk) {
					want = errOther
				} else if blocks := m.blocks(disk); len(blocks) == 0 {
					want = ErrNotWritten
				} else {
					pick = blocks[int(arg)%len(blocks)]
					want = m.corrupt(disk, pick, bits)
				}
				if hit != pick {
					t.Fatalf("op %d: CorruptRandomBlock(%d, %d) hit block %d, model %d", i/4, disk, arg, hit, pick)
				}
			case opAudit:
				if bad, ref := a.AuditChecksums(), m.audit(); !slices.Equal(bad, ref) {
					t.Fatalf("op %d: AuditChecksums = %v, model %v", i/4, bad, ref)
				}
			case opLend:
				var b, ref []byte
				b, _, got = a.Lend(disk, block)
				if ref, want = m.read(disk, block, false); !bytes.Equal(b, ref) {
					t.Fatalf("op %d: Lend(%d, %d) = %v, model %v", i/4, disk, block, b, ref)
				}
				if got == nil {
					lent, kept = append(lent, b), append(kept, bytes.Clone(b))
				}
			case opPeek:
				v := a.Peek(disk, block)
				ref, rerr := m.read(disk, block, false)
				if rerr == nil && !bytes.Equal(v, ref) || rerr != nil && rerr != ErrFailed && v != nil {
					t.Fatalf("op %d: Peek(%d, %d) = %v, model %v (%v)", i/4, disk, block, v, ref, rerr)
				}
				if _, got = a.Probe(disk, block); rerr != ErrCorruptBlock {
					want = rerr
				}
			case opReserve:
				buf, err := a.Reserve(disk, block)
				b := bytes.Repeat([]byte{arg}, bs)
				if err == nil {
					if len(buf) != 0 && len(buf) != bs {
						t.Fatalf("op %d: Reserve(%d, %d) offered %d bytes, want none or a block", i/4, disk, block, len(buf))
					}
					buf = append(buf[:0], b...)
					err = a.Install(disk, block, buf, integrity.Sum(buf))
				}
				got, want = err, m.write(disk, block, b)
			}
			for k := range lent {
				if !bytes.Equal(lent[k], kept[k]) {
					t.Fatalf("op %d: lent slice %d changed from %v to %v", i/4, k, kept[k], lent[k])
				}
			}
			if class(got) != want {
				t.Fatalf("op %d (kind %d disk %d block %d): error %v, model %v", i/4, op, disk, block, got, want)
			}
			written := 0
			for disk := 0; disk < d; disk++ {
				if a.State(disk) != m.state[disk] {
					t.Fatalf("op %d: disk %d is %v, model %v", i/4, disk, a.State(disk), m.state[disk])
				}
				written += len(m.data[disk])
				if a.OwedBlocks(disk) != len(m.owed[disk]) {
					t.Fatalf("op %d: disk %d owes %d blocks, model %d", i/4, disk, a.OwedBlocks(disk), len(m.owed[disk]))
				}
				for block := int64(0); block < nblocks; block++ {
					if _, ok := m.data[disk][block]; a.Written(disk, block) != ok {
						t.Fatalf("op %d: Written(%d, %d) = %v, model %v", i/4, disk, block, !ok, ok)
					}
					if got, want := a.NextOwed(disk, block), m.nextOwed(disk, block); got != want {
						t.Fatalf("op %d: NextOwed(%d, %d) = %d, model %d", i/4, disk, block, got, want)
					}
				}
			}
			if a.Extent() != m.extent || a.WrittenBlocks() != written {
				t.Fatalf("op %d: extent %d, %d written; model %d, %d",
					i/4, a.Extent(), a.WrittenBlocks(), m.extent, written)
			}
		}
	})
}
