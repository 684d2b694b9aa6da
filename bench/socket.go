package main

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The socket workload drives cmd/cmcluster over loopback TCP. The
// daemon's block size is fixed in its source at 64 KB, and at -speed 350
// its 341 ms round paces at the 1 ms floor.
const (
	socketBlockBytes = 64000
	socketRoundNs    = int64(time.Millisecond)
	socketClips      = 4
	socketClipKB     = 4096
)

var socketArgs = []string{
	"-addr", "127.0.0.1:0", "-nodes", "3", "-rep", "2", "-d", "7", "-p", "3",
	"-clips", strconv.Itoa(socketClips), "-clipkb", strconv.Itoa(socketClipKB),
	"-speed", "350", "-scrub", "0",
}

// buildCmcluster compiles the daemon from the checkout into
// .bench_build, where the driver keeps build products.
func buildCmcluster(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "cmcluster")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cmcluster")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/cmcluster: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is a running cmcluster.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	logs   sync.WaitGroup // the goroutine draining the daemon's log
	waited chan error
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon launches cmcluster and waits for its listening address.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, socketArgs...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, waited: make(chan error, 1)}
	addr := make(chan string, 1)
	d.logs.Add(1)
	go func() {
		defer d.logs.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	go func() {
		d.logs.Wait() // Wait closes the pipe; the log must be drained first
		d.waited <- cmd.Wait()
	}()
	select {
	case d.addr = <-addr:
		return d, nil
	case err := <-d.waited:
		return nil, fmt.Errorf("cmcluster exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("cmcluster did not report a listening address within 30 s")
	}
}

// stop asks the daemon to drain and exit, kills it if it does not, and
// returns once the process has ended.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGINT)
	select {
	case <-d.waited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.waited
	}
}

// command sends one protocol line on a fresh connection and returns the
// whole reply.
func command(addr, line string) (string, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := io.WriteString(conn, line+"\n"); err != nil {
		return "", err
	}
	b, err := io.ReadAll(conn)
	return string(b), err
}

// listClips returns the size LIST reports for each clip.
func listClips(addr string) (map[string]int64, error) {
	reply, err := command(addr, "LIST")
	if err != nil {
		return nil, err
	}
	sizes := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(reply), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("LIST line %q", line)
		}
		n, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("LIST line %q: %w", line, err)
		}
		sizes[f[0]] = n
	}
	return sizes, nil
}

// daemonStats is what the harness reads from a STATS reply.
type daemonStats struct {
	round    int64
	hiccups  int64
	tickP50  float64 // µs, the upper bound of the histogram bucket holding the median
	tickSeen int
}

var (
	roundRE   = regexp.MustCompile(`(?m)^round=(\d+)`)
	hiccupRE  = regexp.MustCompile(`(?m)^node=\d+ .*?hiccups=(\d+)`)
	tickHisRE = regexp.MustCompile(`tick_hist=\[([^\]]*)\]`)
)

func readStats(addr string) (daemonStats, error) {
	var st daemonStats
	reply, err := command(addr, "STATS")
	if err != nil {
		return st, err
	}
	m := roundRE.FindStringSubmatch(reply)
	if m == nil {
		return st, fmt.Errorf("STATS reply has no round=: %q", reply)
	}
	st.round, _ = strconv.ParseInt(m[1], 10, 64)
	for _, h := range hiccupRE.FindAllStringSubmatch(reply, -1) {
		n, _ := strconv.ParseInt(h[1], 10, 64)
		st.hiccups += n
	}
	if h := tickHisRE.FindStringSubmatch(reply); h != nil {
		type bucket struct{ us, n int }
		var buckets []bucket
		for _, f := range strings.Fields(h[1]) {
			us, n, ok := strings.Cut(f, ":")
			if !ok {
				continue
			}
			b := bucket{}
			b.us, _ = strconv.Atoi(us)
			b.n, _ = strconv.Atoi(n)
			buckets = append(buckets, b)
			st.tickSeen += b.n
		}
		seen := 0
		for _, b := range buckets {
			seen += b.n
			if 2*seen >= st.tickSeen {
				st.tickP50 = float64(b.us)
				break
			}
		}
	}
	return st, nil
}

// playStats is one PLAY as the client saw it.
type playStats struct {
	startNs, endNs            int64 // dial to EOF, on the run clock
	connectNs, ttfbNs, wallNs int64 // wall runs from PLAY sent to EOF
	bytes                     int64
	crc                       uint32
	gapsNs                    []int64 // between the arrivals of consecutive blocks
}

// play streams one clip on its own TCP connection. Spans go to tr (may
// be nil) under request id req.
func play(addr, clip string, buf []byte, epoch time.Time, tr *tracer, req int) (playStats, error) {
	t0 := nowNs(epoch)
	ps := playStats{startNs: t0}
	root := tr.add("play "+clip, "client", -1, req, t0, t0, 1)
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return ps, err
	}
	defer conn.Close()
	tConn := nowNs(epoch)
	ps.connectNs = tConn - t0
	tr.add("dial", "client", root, req, t0, tConn, 1)
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	if _, err := io.WriteString(conn, "PLAY "+clip+"\n"); err != nil {
		return ps, err
	}
	tSent := nowNs(epoch)
	tr.add("send PLAY", "client", root, req, tConn, tSent, 1)
	tBlock := tSent
	var blocks int64
	for {
		n, err := conn.Read(buf)
		now := nowNs(epoch)
		if n > 0 {
			if ps.bytes == 0 {
				ps.ttfbNs = now - tSent
				tr.add("PLAY to first byte", "cmcluster", root, req, tSent, now, 1)
			}
			ps.crc = crc32.Update(ps.crc, crc32.IEEETable, buf[:n])
			ps.bytes += int64(n)
			for ps.bytes >= (blocks+1)*socketBlockBytes {
				if blocks > 0 {
					ps.gapsNs = append(ps.gapsNs, now-tBlock)
				}
				tr.add("block", "client", root, req, tBlock, now, 1)
				tBlock = now
				blocks++
			}
		}
		if err == io.EOF {
			ps.wallNs, ps.endNs = now-tSent, now
			tr.setEnd(root, now)
			return ps, nil
		}
		if err != nil {
			return ps, err
		}
	}
}

// socketSetup is a started daemon with what the plays are checked
// against: LIST's sizes and a reference play of every clip.
type socketSetup struct {
	d     *daemon
	clips []string
	size  map[string]int64
	crc   map[string]uint32
}

func newSocketSetup(bin string) (*socketSetup, error) {
	d, err := startDaemon(bin)
	if err != nil {
		return nil, err
	}
	s := &socketSetup{d: d, crc: map[string]uint32{}}
	if s.size, err = listClips(d.addr); err == nil && len(s.size) != socketClips {
		err = fmt.Errorf("LIST names %d clips, want %d", len(s.size), socketClips)
	}
	buf := make([]byte, 64<<10)
	for c := 0; c < socketClips && err == nil; c++ {
		name := fmt.Sprintf("clip-%d", c)
		var ps playStats
		ps, err = play(d.addr, name, buf, time.Now(), nil, 0)
		if err == nil && ps.bytes != s.size[name] {
			err = fmt.Errorf("reference play of %s: %d bytes, LIST says %d", name, ps.bytes, s.size[name])
		}
		s.clips = append(s.clips, name)
		s.crc[name] = ps.crc
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return s, nil
}

// runSocket: cmcluster as a subprocess, min(nproc, 4) connections each
// playing clips back to back, one PLAY per TCP connection, closed loop.
// Nothing here is CPU-bound: the workload measures the daemon's lock,
// its 1 ms ErrNoData poll and the write path.
func runSocket(p params) (*result, error) {
	r := newResult(wlSocket, p)
	bin, err := buildCmcluster(p.root)
	if err != nil {
		return nil, err
	}
	// The build is not part of set-up: it is the toolchain's time, not
	// the program's.
	s, setup, err := repeatSetup(p.setups(5), time.Now(), func() (*socketSetup, error) {
		return newSocketSetup(bin)
	}, func(s *socketSetup) { s.d.stop() })
	if err != nil {
		return nil, err
	}
	defer s.d.stop()
	r.set("setup_s", setup, p.setups(5))

	conns := min(runtime.NumCPU(), 4)
	plays := p.scale(13, 2)
	r.Env.Connections = conns
	r.note("loopback TCP, closed loop, %d connections x %d plays of %d KB, one PLAY per connection, 64 KB blocks on 1 ms paced rounds",
		conns, plays, socketClipKB)
	r.note("cmcluster %s", strings.Join(socketArgs, " "))

	epoch := time.Now()
	type connStats struct {
		plays  []playStats // the plays metrics are computed from
		off    []playStats // a traced run's untraced plays
		failed int64
		err    error
		tr     *tracer
	}
	// A traced run does twice the plays and traces every other one, so
	// that both kinds see the same daemon state; see abMeters.
	total := plays
	if p.traced {
		total = 2 * plays
	}
	out := make([]*connStats, conns)
	one := func(c int, cs *connStats) {
		rng := rand.New(rand.NewSource(p.seed*1000 + int64(c)))
		buf := make([]byte, 64<<10)
		for i := 0; i < total; i++ {
			clip := s.clips[rng.Intn(len(s.clips))]
			tr := cs.tr
			if i%2 == 0 {
				tr = nil
			}
			ps, err := play(s.d.addr, clip, buf, epoch, tr, c*total+i)
			switch {
			case err != nil:
				cs.failed++
				cs.err = fmt.Errorf("play of %s: %w", clip, err)
			case ps.bytes != s.size[clip]:
				cs.failed++
				cs.err = fmt.Errorf("play of %s: %d bytes, LIST says %d", clip, ps.bytes, s.size[clip])
			case ps.crc != s.crc[clip]:
				cs.failed++
				cs.err = fmt.Errorf("play of %s: CRC %08x, reference play %08x", clip, ps.crc, s.crc[clip])
			}
			if p.traced && tr == nil {
				cs.off = append(cs.off, ps)
			} else {
				cs.plays = append(cs.plays, ps)
			}
		}
	}

	settle()
	st0, err := readStats(s.d.addr)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuSeconds(s.d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	before := readGoCounters()
	t0 := nowNs(epoch)
	var wg sync.WaitGroup
	for c := range out {
		out[c] = &connStats{}
		if p.traced {
			out[c].tr = newTracer(70 * plays)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			one(c, out[c])
		}(c)
	}
	wg.Wait()
	t1 := nowNs(epoch)
	after := readGoCounters()
	cpu1, err := cpuSeconds(s.d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	st1, err := readStats(s.d.addr)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(s.d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}

	// Series are built in play order across the connections, which is
	// time order, so that quietQuantile's windows are stretches of time.
	var gap, offGap, ttfb, stretchRatio, connect []float64
	var allBytes, idleNs int64
	var firstErr error
	merged := newTracer(0)
	for _, cs := range out {
		r.Attempted += int64(total)
		r.Failed += cs.failed
		if firstErr == nil {
			firstErr = cs.err
		}
		if cs.tr != nil {
			base := len(merged.spans)
			for _, sp := range cs.tr.spans {
				if sp.Parent >= 0 {
					sp.Parent += base
				}
				merged.spans = append(merged.spans, sp)
			}
		}
		idleNs += t1 - t0
	}
	for i := 0; i < plays; i++ {
		for _, cs := range out {
			if p.traced {
				ps := cs.off[i]
				idleNs -= ps.endNs - ps.startNs
				allBytes += ps.bytes
				for _, g := range ps.gapsNs {
					offGap = append(offGap, float64(g)/1e6)
				}
			}
			ps := cs.plays[i]
			idleNs -= ps.endNs - ps.startNs
			allBytes += ps.bytes
			connect = append(connect, float64(ps.connectNs)/1e3)
			ttfb = append(ttfb, float64(ps.ttfbNs)/1e6)
			for _, g := range ps.gapsNs {
				gap = append(gap, float64(g)/1e6)
			}
			if n := int64(len(ps.gapsNs)); n > 0 {
				stretchRatio = append(stretchRatio, float64(ps.wallNs-ps.ttfbNs)/float64(n*socketRoundNs))
			}
		}
	}
	// Payload rate per window of plays, all connections together; the
	// upper-quartile window is reported. A window's time is the mean
	// over the connections of the time its plays took.
	w := max(plays/5, 1)
	var rates []float64
	for k := 0; k < w; k++ {
		var sum, ns int64
		for _, cs := range out {
			for _, ps := range cs.plays[k*plays/w : (k+1)*plays/w] {
				sum += ps.bytes
				ns += ps.endNs - ps.startNs
			}
		}
		rates = append(rates, float64(sum)/(float64(ns)/float64(conns)/1e9))
	}
	rate := quantile(rates, 0.75)

	if firstErr != nil {
		r.Error = firstErr.Error()
	}
	wall := float64(t1-t0) / 1e9
	r.set("round_p50_ms", quietQuantile(gap, 0.50), len(gap))
	r.set("round_p95_ms", quietQuantile(gap, 0.95), len(gap))
	r.set("stream_rounds_per_s", rate/socketBlockBytes, 0)
	r.set("delivered_mb_per_s", rate/1e6, 0)
	r.set("peak_rss_mb", rss, 0)
	r.set("miss_ratio", float64(r.Failed)/float64(r.Attempted), 0)
	r.set("ttfb_p50_ms", quietQuantile(ttfb, 0.50), len(ttfb))
	r.set("ttfb_p95_ms", quietQuantile(ttfb, 0.95), len(ttfb))
	r.set("play_stretch_p50", quietQuantile(stretchRatio, 0.5), len(stretchRatio))
	r.set("client.connect_us", quietQuantile(connect, 0.5), len(connect))
	r.set("client.block_gap_p50_ms", quietQuantile(gap, 0.50), len(gap))
	r.set("client.block_gap_p99_ms", quantile(gap, 0.99), len(gap))
	r.set("cmcluster.tick_p50_us", st1.tickP50, st1.tickSeen)
	r.set("cmcluster.rounds_per_s", float64(st1.round-st0.round)/wall, 0)
	r.set("cmcluster.cpu_ms_per_mb", (cpu1-cpu0)*1e3/(float64(allBytes)/1e6), 0)
	r.set("cmcluster.node_hiccups", float64(st1.hiccups), 0)
	r.set("verify.delivered_bytes", float64(allBytes), 0)
	r.set("harness.overhead_ns_per_round", float64(idleNs)/float64(r.Attempted), 0)
	r.setGo(before, after)
	if p.traced {
		r.set("trace.overhead_ratio", median(gap)/median(offGap), len(gap))
		if err := writeSpans(merged, p); err != nil {
			return nil, err
		}
	}
	return r, nil
}
