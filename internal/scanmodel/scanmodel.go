// Package scanmodel reproduces the paper's §1 motivating arithmetic: "for a
// dataset D of 1 PB on the fastest SSDs with a scanning speed of 6 GB/s, a
// linear scan of D takes 166,666 seconds; that is, 46 hours, or 1.9 days",
// versus O(log |D|) index probes after preprocessing.
//
// The model is deliberately the paper's own: pure bandwidth for scans, a
// per-probe latency for index access. It regenerates the quoted numbers
// exactly and extends them into the E1 experiment table.
package scanmodel

import (
	"fmt"
	"math"
)

// Byte-size units.
const (
	GB float64 = 1e9
	TB float64 = 1e12
	PB float64 = 1e15
)

// Device models a storage device.
type Device struct {
	Name string
	// ScanBytesPerSec is the sequential scan bandwidth.
	ScanBytesPerSec float64
	// ProbeSeconds is the latency of one random index probe (node fetch).
	ProbeSeconds float64
}

// PaperSSD is the device of the paper's §1 example: 6 GB/s scanning speed
// [38]; the probe latency of 0.1 ms is a representative SSD random read
// used only for the indexed column of the table (the paper quotes
// "seconds" without a constant).
func PaperSSD() Device {
	return Device{Name: "SSD (6GB/s)", ScanBytesPerSec: 6 * GB, ProbeSeconds: 1e-4}
}

// ScanSeconds is the time to scan size bytes linearly.
func (d Device) ScanSeconds(size float64) float64 {
	return size / d.ScanBytesPerSec
}

// IndexedSeconds is the time for one point lookup over size bytes of
// tupleSize-byte records via a B⁺-tree of the given fanout: ⌈log_f(n)⌉
// probes.
func (d Device) IndexedSeconds(size, tupleSize float64, fanout int) float64 {
	n := size / tupleSize
	if n < 2 {
		return d.ProbeSeconds
	}
	probes := math.Ceil(math.Log(n) / math.Log(float64(fanout)))
	return probes * d.ProbeSeconds
}

// Row is one line of the Example 1 table.
type Row struct {
	Label          string
	Bytes          float64
	ScanSeconds    float64
	ScanHuman      string
	IndexedSeconds float64
}

// Table regenerates the paper's arithmetic for a sweep of dataset sizes.
func Table(d Device, tupleSize float64, fanout int) []Row {
	sizes := []struct {
		label string
		bytes float64
	}{
		{"1GB", 1 * GB},
		{"1TB", 1 * TB},
		{"100TB", 100 * TB},
		{"1PB", 1 * PB},
	}
	rows := make([]Row, 0, len(sizes))
	for _, s := range sizes {
		scan := d.ScanSeconds(s.bytes)
		rows = append(rows, Row{
			Label:          s.label,
			Bytes:          s.bytes,
			ScanSeconds:    scan,
			ScanHuman:      HumanDuration(scan),
			IndexedSeconds: d.IndexedSeconds(s.bytes, tupleSize, fanout),
		})
	}
	return rows
}

// HumanDuration renders seconds the way the paper does ("166,666 seconds;
// that is, 46 hours, or 1.9 days").
func HumanDuration(sec float64) string {
	switch {
	case sec < 1:
		return fmt.Sprintf("%.1fms", sec*1e3)
	case sec < 120:
		return fmt.Sprintf("%.1fs", sec)
	case sec < 7200:
		return fmt.Sprintf("%.1fmin", sec/60)
	case sec < 2*86400:
		return fmt.Sprintf("%.1fh", sec/3600)
	default:
		return fmt.Sprintf("%.1fd", sec/86400)
	}
}
