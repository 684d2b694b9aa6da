package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"testing"
)

// Ops of FuzzRebuildQueueIndex, one byte each, followed by their arguments.
const (
	opAddClip      = iota // size: three bytes
	opBeginImport         // size: two bytes
	opImportBlock         // which import, how many blocks: one byte each
	opCommitImport        // which import: one byte
	opAbortImport         // which import: one byte
	opAddDisk             // no argument
	opCount
)

// indexFuzzInput is the FuzzRebuildQueueIndex input that stores clips of
// the given sizes on sevenSchemes[scheme].
func indexFuzzInput(scheme int, sizes ...int) []byte {
	in := []byte{byte(scheme)}
	for _, n := range sizes {
		n--
		in = append(in, opAddClip, byte(n>>16), byte(n>>8), byte(n))
	}
	return in
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// FuzzRebuildQueueIndex holds the store's per-disk index, the queue a
// failure installs, to the store-wide reference after every op of a
// sequence of clip writes, imports — written block by block, committed
// with their padding, or aborted, their blocks kept or reclaimed and
// rewritten — and AddDisk re-layouts. The reference walks every data block
// the sequence wrote. The declustered schemes start one disk short of their
// sevenSchemes geometry, so that AddDisk has a table to grow into.
func FuzzRebuildQueueIndex(f *testing.F) {
	for k := range sevenSchemes {
		for _, pop := range rebuildOrderPopulations {
			var sizes []int
			for _, c := range pop {
				sizes = append(sizes, c.size)
			}
			f.Add(indexFuzzInput(k, sizes...))
		}
	}
	f.Add(append(indexFuzzInput(0, 90_000),
		opBeginImport, 0x20, 0, opImportBlock, 0, 7, opAbortImport, 0,
		opBeginImport, 0x10, 1, opImportBlock, 0, 4, opAddClip, 0, 0x40, 0,
		opImportBlock, 0, 7, opCommitImport, 0, opAddDisk))
	f.Add(append(indexFuzzInput(6, 40_000),
		opBeginImport, 0x30, 0, opImportBlock, 0, 5, opAbortImport, 0,
		opAddDisk, opAddClip, 0, 0x30, 0))
	f.Add(append(indexFuzzInput(2, 30_000),
		opBeginImport, 0x30, 0, opImportBlock, 0, 7, opCommitImport, 0, opAddClip, 0, 0x20, 0))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		sc := sevenSchemes[int(in[0])%len(sevenSchemes)]
		if sc.scheme.CanAddDisk() {
			sc.d--
		}
		in = in[1:]
		s := newServer(t, sc.scheme, sc.d, sc.p)
		bs := s.store.Array.BlockSize()
		block := clipBytes(1, bs)
		written := map[int64]bool{}
		arg := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		pick := func() (string, *importState) {
			names := sortedKeys(s.imports)
			if len(names) == 0 {
				arg()
				return "", nil
			}
			name := names[arg()%len(names)]
			return name, s.imports[name]
		}
		for ops := 0; len(in) > 0 && ops < 24; ops++ {
			op := arg() % opCount
			switch op {
			case opAddClip:
				name, size := fmt.Sprint("c", ops), (arg()<<16|arg()<<8|arg())%500_000+1
				if err := s.AddClip(name, clipBytes(int64(ops), size)); err != nil {
					t.Fatal(err)
				}
				for n := range s.clips[name].blocks {
					written[s.clips[name].block(n)] = true
				}
			case opBeginImport:
				if err := s.BeginClipImport(fmt.Sprint("i", ops), int64((arg()<<8|arg())%(30*bs)+1)); err != nil {
					t.Fatal(err)
				}
			case opImportBlock:
				name, im := pick()
				for k := arg()%8 + 1; im != nil && k > 0 && im.written < im.dataBlocks; k-- {
					s.engine.BeginRound()
					n := im.written
					if ok, err := s.ImportClipBlockIdle(name, n, block); err != nil {
						t.Fatal(err)
					} else if ok {
						written[im.ci.block(n)] = true
					}
				}
			case opCommitImport:
				name, im := pick()
				for r := 0; im != nil && im.written == im.dataBlocks && r < 100; r++ {
					s.engine.BeginRound()
					done, err := s.CommitClipImport(name)
					if err != nil {
						t.Fatal(err)
					}
					for n := im.dataBlocks; n < im.padNext; n++ {
						written[im.ci.block(n)] = true
					}
					if done {
						break
					}
				}
			case opAbortImport:
				if name, im := pick(); im != nil {
					if err := s.AbortClipImport(name); err != nil {
						t.Fatal(err)
					}
				}
			case opAddDisk:
				if s.AddDisk() != nil {
					break
				}
				for r := 0; s.Relayouting(); r++ {
					if r > 10_000 {
						t.Fatal("re-layout never finished")
					}
					tick(t, s, 1)
				}
				// The copy takes the blocks below the allocation cursor; a
				// reclaimed import's blocks above it stay behind.
				maps.DeleteFunc(written, func(i int64, _ bool) bool { return i >= s.nextFree })
			}
			want := refQueuesOf(s, sortedKeys(written))
			for disk := range s.cfg.D {
				if diff := sameQueue(s, disk, s.store.Held(disk), want[disk]); diff != "" {
					t.Fatalf("after op %d (%d): %s", ops, op, diff)
				}
			}
		}
	})
}
