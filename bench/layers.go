package main

import (
	"math/rand"
	"time"

	"ftcms/internal/admission"
	"ftcms/internal/core"
	"ftcms/internal/health"
	"ftcms/internal/integrity"
	"ftcms/internal/layout"
	"ftcms/internal/recovery"
	"ftcms/internal/sched"
	"ftcms/internal/storage"
)

// The layer replay calls each inner layer's public functions on
// standalone instances at the workload's geometry and block size, with
// the access pattern the workload's streams have. It runs in traced runs
// only, after the measured phase, and never touches the server under
// test. A replay that cannot build its instances is a harness bug and
// panics.

// replayRounds is how many rounds of the stream population's accesses
// each layer is timed over; the per-call cost is the median round's.
const replayRounds = 30

// sink keeps the compiler from dropping replayed calls whose results are
// otherwise unused.
var sink uint64

func must[T any](v T, err error) T {
	if err != nil {
		panic("bench: layer replay: " + err.Error())
	}
	return v
}

// standaloneStore is an array with its parity maintained, filled with
// the workload's clips at the same logical addresses the server gives
// them (clips are allocated back to back from block 0).
func standaloneStore(cfg core.Config, size coreSize, seed int64) (*layout.Declustered, *recovery.Store) {
	bs := int(cfg.Block.Bytes())
	lay := must(layout.NewDeclustered(cfg.D, cfg.P))
	store := must(recovery.NewStore(lay, must(storage.NewArray(cfg.D, bs))))
	buf := make([]byte, bs)
	for c := 0; c < size.nclips; c++ {
		for n := int64(0); n < size.clipBlocks; n++ {
			fillBlock(buf, seed, c, n)
			if err := store.WriteBlock(int64(c)*size.clipBlocks+n, buf); err != nil {
				panic("bench: layer replay: " + err.Error())
			}
		}
	}
	return lay, store
}

// perCall runs fn for replayRounds rounds of calls calls each and returns
// the median round's ns per call. before, when given, prepares the round
// outside the clock.
func perCall(calls int, before, fn func(round int)) float64 {
	ns := make([]float64, replayRounds)
	for t := range ns {
		if before != nil {
			before(t)
		}
		t0 := time.Now()
		fn(t)
		ns[t] = float64(time.Since(t0)) / float64(calls)
	}
	return median(ns)
}

// replayReadPath times the healthy read path's layers one at a time and
// reports what the server's tick and read cost beyond them.
func replayReadPath(r *result, cfg core.Config, size coreSize, lay *layout.Declustered, store *recovery.Store) {
	arr := store.Array
	eng := must(sched.NewEngine(cfg.D, cfg.Q, cfg.Disk, cfg.Block))
	det := health.NewDetector(cfg.D, cfg.Health)
	defer det.Stop()

	// The population was admitted f streams per clip per round, so stream
	// j started in round j/(f*nclips) and now trails the first stream by
	// that many blocks; streams of one batch read the same block.
	n := size.streams
	perRound := cfg.F * size.nclips
	depth := int64(n/perRound + 1)
	logical := func(j, t int) int64 {
		c := int64(j / cfg.F % size.nclips)
		off := (depth - int64(j/perRound) + int64(t)) % size.clipBlocks
		return c*size.clipBlocks + off
	}
	addrs := make([]layout.BlockAddr, n)
	place := func(t int) {
		for j := range addrs {
			addrs[j] = lay.Place(logical(j, t))
		}
	}
	bs := int(cfg.Block.Bytes())
	block, out := make([]byte, bs), make([]byte, bs)

	placeNs := perCall(n, nil, place)
	// Every other layer needs this round's addresses first; timed places
	// them outside the clock.
	timed := func(body func()) float64 {
		return perCall(n, place, func(int) { body() })
	}
	chargeNs := timed(func() {
		eng.BeginRound()
		for _, a := range addrs {
			eng.Charge(a.Disk)
		}
	})
	storageNs := timed(func() {
		for _, a := range addrs {
			if err := arr.ReadInto(a.Disk, a.Block, block); err != nil {
				panic("bench: layer replay: " + err.Error())
			}
		}
	})
	healthNs := timed(func() {
		for _, a := range addrs {
			if err := det.ReadInto(arr, a.Disk, a.Block, block); err != nil {
				panic("bench: layer replay: " + err.Error())
			}
		}
	})
	sumNs := timed(func() {
		for range addrs {
			sink += uint64(integrity.Sum(block))
		}
	})
	copyNs := timed(func() {
		for range addrs {
			copy(out, block)
		}
	})
	sink += uint64(out[0])

	r.set("layout.place_ns", placeNs, replayRounds)
	r.set("sched.charge_ns", chargeNs, replayRounds)
	r.set("storage.readinto_ns", storageNs, replayRounds)
	r.set("health.readinto_ns", healthNs, replayRounds)
	r.set("integrity.sum_ns", sumNs, replayRounds)
	r.set("mem.copy_ns", copyNs, replayRounds)
	r.set("storage.self_ns", storageNs-sumNs-copyNs, 0)
	r.set("health.self_ns", healthNs-storageNs, 0)
	// What the server spends per stream-round beyond the replayed layers:
	// pipeline maps, registry walk, ledger, block freelist. Delivery and
	// Read each copy the block once more.
	spent := r.Metrics["core.tick_ns_per_sr"].Value + r.Metrics["core.read_ns_per_sr"].Value
	r.set("core.unattributed_ns_per_sr", spent-(placeNs+chargeNs+healthNs+2*copyNs), 0)
}

// replayRepair times what rebuilding one block costs: XOR of p-1
// sources, Store.Reconstruct, and the spare write.
func replayRepair(r *result, cfg core.Config, size coreSize, store *recovery.Store, seed int64) {
	bs := int(cfg.Block.Bytes())
	total := int64(size.nclips) * size.clipBlocks
	calls := 2048
	if int64(calls) > total {
		calls = int(total)
	}
	srcs := make([][]byte, cfg.P-1)
	for i := range srcs {
		srcs[i] = make([]byte, bs)
		fillBlock(srcs[i], seed, i, 0)
	}
	dst := make([]byte, bs)
	r.set("recovery.xor_ns", perCall(calls, nil, func(int) {
		for i := 0; i < calls; i++ {
			recovery.XOR(dst, srcs...)
		}
	}), replayRounds)
	// Blocks a failed disk would lose are spread over the whole store;
	// step through it with a stride coprime to the disk count.
	stride := total/int64(calls) | 1
	r.set("recovery.reconstruct_ns", perCall(calls, nil, func(t int) {
		for i := 0; i < calls; i++ {
			b, err := store.Reconstruct((int64(t) + int64(i)*stride) % total)
			if err != nil {
				panic("bench: layer replay: " + err.Error())
			}
			sink += uint64(b[0])
		}
	}), replayRounds)
	r.set("storage.write_ns", perCall(calls, nil, func(t int) {
		for i := 0; i < calls; i++ {
			a := store.Layout.Place((int64(t) + int64(i)*stride) % total)
			if err := store.Array.Write(a.Disk, a.Block, dst); err != nil {
				panic("bench: layer replay: " + err.Error())
			}
		}
	}), replayRounds)
}

// replayOpen times, on standalone instances of one churn node, what the
// cluster's OpenStream is built from: a core open and close, and the
// admission controller's admit and release. It returns the core open's
// median ns for the routing-overhead subtraction.
func replayOpen(r *result, cfg core.Config, size churnSize, seed int64) float64 {
	srv := must(core.New(cfg))
	bs := int(cfg.Block.Bytes())
	buf := make([]byte, size.clipBlocks*bs)
	for c := 0; c < size.nclips; c++ {
		fillClip(buf, bs, seed, c)
		if err := srv.AddClip(clipName(c), buf); err != nil {
			panic("bench: layer replay: " + err.Error())
		}
	}
	names := make([]string, size.nclips)
	for c := range names {
		names[c] = clipName(c)
	}
	picks := rand.NewZipf(rand.New(rand.NewSource(seed)), zipfS, 1, uint64(size.nclips-1))
	const calls = 20000
	openNs, pairNs := make([]float64, calls), make([]float64, calls)
	for i := 0; i < calls; i++ {
		name := names[picks.Uint64()]
		t0 := time.Now()
		st, err := srv.OpenStream(name)
		t1 := time.Now()
		if err != nil {
			panic("bench: layer replay: " + err.Error())
		}
		st.Close()
		t2 := time.Now()
		openNs[i], pairNs[i] = float64(t1.Sub(t0)), float64(t2.Sub(t0))
	}
	r.set("core.open_close_ns", median(pairNs), calls)

	rows := must(layout.NewDeclustered(cfg.D, cfg.P)).Rows()
	ctl := must(admission.NewStatic(cfg.D, rows, cfg.Q, cfg.F))
	admitNs := make([]float64, calls)
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		tk, ok := ctl.Admit(int64(i), i%cfg.D, i%rows)
		if ok {
			ctl.Release(tk)
		}
		admitNs[i] = float64(time.Since(t0))
	}
	r.set("admission.admit_release_ns", median(admitNs), calls)
	return median(openNs)
}
