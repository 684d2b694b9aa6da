package integrity

import (
	"hash/crc32"
	"testing"
)

func TestSumIsCastagnoli(t *testing.T) {
	data := []byte("continuous media server")
	want := crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli))
	if got := Sum(data); got != want {
		t.Fatalf("Sum = %08x, want CRC-32C %08x", got, want)
	}
	if ieee := crc32.ChecksumIEEE(data); Sum(data) == ieee {
		t.Fatalf("Sum matches IEEE polynomial; want Castagnoli")
	}
}
