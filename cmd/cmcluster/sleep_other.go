//go:build !linux

package main

import "time"

// sleepUntil is the portable fallback: same schedule, coarser wake.
func sleepUntil(deadline time.Time) { time.Sleep(time.Until(deadline)) }
