package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks the calling (locked) thread until deadline. time.Sleep
// in an idle Go process is an epoll_wait, which takes ≥ 1 ms (DESIGN.md).
func sleepUntil(deadline time.Time) {
	for d := time.Until(deadline); d > 0; d = time.Until(deadline) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}
