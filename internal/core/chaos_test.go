package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"ftcms/internal/faultinject"
)

// chaosStream tracks one stream and the byte offset we expect its next
// read to continue from.
type chaosStream struct {
	st     *Stream
	clip   []byte
	offset int64
	paused bool
}

// TestChaos drives the server with a random mix of open/read/pause/
// seek/resume/close operations while a disk fails and is later repaired,
// verifying every delivered byte against the stored content and ending
// with zero hiccups. This is the cross-module integration test: layout,
// recovery, scheduling, admission, buffering and the VCR surface all
// interleave.
func TestChaos(t *testing.T) {
	for _, scheme := range []Scheme{Declustered, DeclusteredDynamic, PrefetchParityDisk, PrefetchFlat, StreamingRAID, NonClustered} {
		t.Run(scheme.Key(), func(t *testing.T) {
			d, p := 8, 4
			switch scheme {
			case Declustered, DeclusteredDynamic:
				d, p = 7, 3
			case PrefetchFlat:
				d, p = 9, 4
			}
			cfg := testConfig(scheme, d, p)
			cfg.Buffer = 256 * 1000 * 1000 * 8 // plenty
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(scheme.Key()))))
			clips := make([][]byte, 6)
			for i := range clips {
				clips[i] = clipBytes(int64(1000+i), 40_000+i*8000)
				if err := s.AddClip(string(rune('a'+i)), clips[i]); err != nil {
					t.Fatal(err)
				}
			}

			var streams []*chaosStream
			buf := make([]byte, 64<<10)
			verified := 0
			completed := 0

			readAll := func(cs *chaosStream) {
				if cs.paused {
					return
				}
				for {
					n, err := cs.st.Read(buf)
					if n > 0 {
						want := cs.clip[cs.offset : cs.offset+int64(n)]
						if !bytes.Equal(buf[:n], want) {
							t.Fatalf("stream bytes diverge at offset %d", cs.offset)
						}
						cs.offset += int64(n)
						verified += n
					}
					if errors.Is(err, io.EOF) {
						if cs.offset != int64(len(cs.clip)) {
							t.Fatalf("EOF at offset %d of %d", cs.offset, len(cs.clip))
						}
						completed++
						return
					}
					if errors.Is(err, ErrNoData) || n == 0 {
						return
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}

			for round := 0; round < 500; round++ {
				switch round {
				case 100:
					if err := s.FailDisk(2); err != nil {
						t.Fatal(err)
					}
				case 300:
					if err := s.RepairDisk(2); err != nil {
						t.Fatal(err)
					}
					if err := s.FailDisk(d - 1); err != nil {
						t.Fatal(err)
					}
				}
				// Random operation.
				switch rng.Intn(6) {
				case 0, 1: // open a new stream
					id := rng.Intn(len(clips))
					st, err := s.OpenStream(string(rune('a' + id)))
					if err == nil {
						streams = append(streams, &chaosStream{st: st, clip: clips[id]})
					} else if !errors.Is(err, ErrAdmission) {
						t.Fatal(err)
					}
				case 2: // pause someone
					if len(streams) > 0 {
						cs := streams[rng.Intn(len(streams))]
						if !cs.st.done && !cs.paused {
							if err := cs.st.Pause(); err != nil {
								t.Fatal(err)
							}
							cs.paused = true
						}
					}
				case 3: // seek a paused stream, then resume it
					for _, cs := range streams {
						if cs.paused && !cs.st.done {
							off := rng.Int63n(int64(len(cs.clip)))
							if err := cs.st.SeekTo(off); err != nil {
								t.Fatal(err)
							}
							// The seek took effect regardless of whether
							// the resume below is admitted: the next byte
							// read is clip byte off.
							cs.offset = off
							if err := cs.st.Resume(); err == nil {
								cs.paused = false
							} else if !errors.Is(err, ErrAdmission) {
								t.Fatal(err)
							}
							break
						}
					}
				case 4: // resume someone
					for _, cs := range streams {
						if cs.paused && !cs.st.done {
							if err := cs.st.Resume(); err == nil {
								cs.paused = false
							} else if !errors.Is(err, ErrAdmission) {
								t.Fatal(err)
							}
							break
						}
					}
				case 5: // close someone
					if len(streams) > 0 && rng.Intn(3) == 0 {
						i := rng.Intn(len(streams))
						streams[i].st.Close()
						streams = append(streams[:i], streams[i+1:]...)
					}
				}
				if err := s.Tick(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for _, cs := range streams {
					readAll(cs)
				}
				// Drop finished streams.
				for i := 0; i < len(streams); {
					if streams[i].st.done {
						streams = append(streams[:i], streams[i+1:]...)
					} else {
						i++
					}
				}
			}
			stats := s.Stats()
			if stats.Hiccups != 0 {
				t.Fatalf("%d hiccups across chaos run", stats.Hiccups)
			}
			if verified == 0 || completed == 0 {
				t.Fatalf("chaos run verified %d bytes, completed %d streams — too quiet", verified, completed)
			}
			t.Logf("%s: verified %d bytes, %d completions, served=%d", scheme, verified, completed, stats.Served)
		})
	}
}

// TestChaosMultiFault layers a randomized, seeded multi-fault schedule —
// two injected fail-stops (the second while the hot-spare rebuild of the
// first may still be running), latent bad blocks, and a transient-error
// window — over the random VCR workload. The invariants are the failure
// lifecycle's:
//
//   - a corrupt byte is never delivered: every verified read matches the
//     stored clip (a pipeline hiccup may skip a block, which is a
//     reported loss, not corruption — streams past a hiccup stop strict
//     verification);
//   - a stream that does not finish cleanly ends with an explicit
//     ErrStreamLost reason, never a silent stall;
//   - recoverable scenarios (everything up to the second failure) stay
//     bit-exact.
func TestChaosMultiFault(t *testing.T) {
	for _, scheme := range []Scheme{Declustered, DeclusteredDynamic, PrefetchParityDisk, PrefetchFlat, StreamingRAID, NonClustered} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", scheme, seed), func(t *testing.T) {
				d, p := 8, 4
				switch scheme {
				case Declustered, DeclusteredDynamic:
					d, p = 7, 3
				case PrefetchFlat:
					d, p = 9, 4
				}
				cfg := testConfig(scheme, d, p)
				cfg.Buffer = 256 * 1000 * 1000 * 8
				cfg.Spares = 1
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.InjectFaults(faultinject.Plan{Seed: seed})
				rng := rand.New(rand.NewSource(seed*100 + int64(len(scheme.Key()))))
				clips := make([][]byte, 4)
				for i := range clips {
					clips[i] = clipBytes(seed*10+int64(i), 40_000+i*8000)
					if err := s.AddClip(string(rune('a'+i)), clips[i]); err != nil {
						t.Fatal(err)
					}
				}
				// Seeded schedule: two fail-stops on distinct disks, a few
				// latent bad blocks, one transient window.
				disk1 := rng.Intn(d)
				disk2 := (disk1 + 1 + rng.Intn(d-1)) % d
				failRound1 := int64(40 + rng.Intn(20))
				failRound2 := failRound1 + int64(10+rng.Intn(30))
				s.injector.AddFailStop(faultinject.FailStop{Disk: disk1, Round: failRound1})
				s.injector.AddFailStop(faultinject.FailStop{Disk: disk2, Round: failRound2})
				for i := 0; i < 3; i++ {
					s.injector.AddBadBlock(faultinject.BadBlock{
						Disk:  rng.Intn(d),
						Block: int64(rng.Intn(30)),
					})
				}
				s.injector.AddTransient(faultinject.Transient{
					Disk: rng.Intn(d), Prob: 0.15,
					From: failRound1 - 20, Until: failRound1,
				})

				var streams []*chaosStream
				tainted := map[*chaosStream]bool{}
				buf := make([]byte, 64<<10)
				verified, completed, lost := 0, 0, 0

				readAll := func(cs *chaosStream) {
					if cs.paused || tainted[cs] {
						return
					}
					for {
						n, err := cs.st.Read(buf)
						if n > 0 {
							want := cs.clip[cs.offset:]
							if int64(len(want)) > int64(n) {
								want = want[:n]
							}
							if !bytes.Equal(buf[:n], want) {
								// Distinguish a pipeline hiccup (a skipped
								// block — reported loss) from corruption.
								if s.Stats().Hiccups > 0 {
									tainted[cs] = true
									return
								}
								t.Fatalf("corrupt bytes at offset %d of stream", cs.offset)
							}
							cs.offset += int64(n)
							verified += n
						}
						if errors.Is(err, io.EOF) {
							if cs.offset != int64(len(cs.clip)) {
								t.Fatalf("EOF at offset %d of %d", cs.offset, len(cs.clip))
							}
							completed++
							return
						}
						if errors.Is(err, ErrStreamLost) {
							// Explicit termination: the reason must be
							// recorded on the stream too.
							if !errors.Is(cs.st.termErr, ErrStreamLost) {
								t.Fatalf("terminated stream lacks its reason: %v", cs.st.termErr)
							}
							lost++
							return
						}
						if errors.Is(err, ErrNoData) || n == 0 {
							return
						}
						if err != nil {
							t.Fatal(err)
						}
					}
				}

				for round := 0; round < 400; round++ {
					switch rng.Intn(6) {
					case 0, 1:
						id := rng.Intn(len(clips))
						st, err := s.OpenStream(string(rune('a' + id)))
						if err == nil {
							streams = append(streams, &chaosStream{st: st, clip: clips[id]})
						} else if !errors.Is(err, ErrAdmission) {
							t.Fatal(err)
						}
					case 2:
						if len(streams) > 0 {
							cs := streams[rng.Intn(len(streams))]
							if !cs.st.done && !cs.paused {
								if err := cs.st.Pause(); err != nil {
									t.Fatal(err)
								}
								cs.paused = true
							}
						}
					case 3, 4:
						for _, cs := range streams {
							if cs.paused && !cs.st.done {
								if err := cs.st.Resume(); err == nil {
									cs.paused = false
								} else if !errors.Is(err, ErrAdmission) {
									t.Fatal(err)
								}
								break
							}
						}
					case 5:
						if len(streams) > 0 && rng.Intn(3) == 0 {
							i := rng.Intn(len(streams))
							streams[i].st.Close()
							streams = append(streams[:i], streams[i+1:]...)
						}
					}
					if err := s.Tick(); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					for _, cs := range streams {
						readAll(cs)
					}
					for i := 0; i < len(streams); {
						if streams[i].st.done {
							streams = append(streams[:i], streams[i+1:]...)
						} else {
							i++
						}
					}
				}

				stats := s.Stats()
				if verified == 0 {
					t.Fatal("multi-fault chaos verified no bytes")
				}
				if lost != stats.Terminated {
					// Terminated-while-paused streams never read their
					// error; allow stats to exceed observed losses only.
					if lost > stats.Terminated {
						t.Fatalf("observed %d lost streams, stats %d", lost, stats.Terminated)
					}
				}
				t.Logf("%s seed %d: verified %d bytes, completed %d, lost %d, hiccups %d, lostBlocks %d, badRepairs %d, mode %s",
					scheme, seed, verified, completed, lost, stats.Hiccups, stats.LostBlocks, stats.BadBlockRepairs, stats.Mode)
			})
		}
	}
}
