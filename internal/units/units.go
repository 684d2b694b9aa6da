// Package units provides the small set of physical quantities the rest of
// the library is written in terms of: data sizes in bits and bytes, data
// rates in bits per second, and durations in seconds.
//
// The paper ("Fault-tolerant Architectures for Continuous Media Servers",
// SIGMOD 1996) quotes disk transfer rates in Mbps, buffer sizes in MB/GB
// and latencies in milliseconds. Keeping explicit types here avoids the
// classic bits-vs-bytes and MB-vs-MiB mistakes when translating its
// equations.
package units

import "fmt"

// Bits is a data size in bits. Block sizes, buffer sizes and clip sizes are
// all carried as Bits internally so they compose directly with BitRate.
type Bits int64

// Common sizes. The paper uses decimal megabytes/gigabytes (e.g. a 2 GB
// disk, a 256 MB buffer), so MB and GB are powers of ten.
const (
	Byte Bits = 8
	KB   Bits = 1000 * Byte
	MB   Bits = 1000 * KB
	GB   Bits = 1000 * MB

	KiB Bits = 1024 * Byte
	MiB Bits = 1024 * KiB
)

// Bytes returns the size in whole bytes, truncating any partial byte.
func (b Bits) Bytes() int64 { return int64(b / Byte) }

// String renders the size with a human-scale unit.
func (b Bits) String() string {
	switch {
	case b >= GB:
		return fmt.Sprintf("%.3g GB", float64(b)/float64(GB))
	case b >= MB:
		return fmt.Sprintf("%.3g MB", float64(b)/float64(MB))
	case b >= KB:
		return fmt.Sprintf("%.3g KB", float64(b)/float64(KB))
	case b >= Byte && b%Byte == 0:
		return fmt.Sprintf("%d B", b.Bytes())
	default:
		return fmt.Sprintf("%d bit", int64(b))
	}
}

// BitRate is a data rate in bits per second.
type BitRate float64

// Common rates. Mbps matches the paper's disk (45 Mbps inner track) and
// MPEG-1 playback (1.5 Mbps) figures.
const (
	BitPerSecond BitRate = 1
	Kbps                 = 1000 * BitPerSecond
	Mbps                 = 1000 * Kbps
	Gbps                 = 1000 * Mbps
)

// String renders the rate with a human-scale unit.
func (r BitRate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.3g Gbps", float64(r/Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%.3g Mbps", float64(r/Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%.3g Kbps", float64(r/Kbps))
	default:
		return fmt.Sprintf("%.3g bps", float64(r))
	}
}

// Duration is a length of time in seconds. A dedicated float type (rather
// than time.Duration) keeps the paper's continuous equations exact: round
// lengths and latencies divide and multiply without nanosecond rounding.
type Duration float64

// Common durations.
const (
	Second      Duration = 1
	Millisecond          = Second / 1000
	Microsecond          = Millisecond / 1000
)

// Seconds returns the duration as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// String renders the duration with a human-scale unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.4g s", float64(d))
	case d >= Millisecond:
		return fmt.Sprintf("%.4g ms", float64(d/Millisecond))
	default:
		return fmt.Sprintf("%.4g us", float64(d/Microsecond))
	}
}

// TransferTime returns how long moving size bits at rate r takes.
// It panics on a non-positive rate: a zero transfer rate is always a
// configuration bug, never a meaningful model.
func TransferTime(size Bits, r BitRate) Duration {
	if r <= 0 {
		panic("units: non-positive transfer rate")
	}
	return Duration(float64(size) / float64(r))
}

// SizeAtRate returns how many bits flow in d at rate r (truncated).
func SizeAtRate(r BitRate, d Duration) Bits {
	if r < 0 || d < 0 {
		panic("units: negative rate or duration")
	}
	return Bits(float64(r) * float64(d))
}
