package main

import (
	"math"
	"syscall"
	"time"
	"unsafe"
)

// Host speed calibration. On a shared machine the host's speed drifts by
// tens of percent over tens of seconds as other tenants come and go; a
// workload's raw throughput drifts with it, which no amount of repetition
// inside one run averages out. The benchmark therefore measures the host's
// speed with two fixed reference kernels written in this file, right after
// set-up, at the pauses a long timed phase takes and at its end, and
// reports host times in reference-host seconds: divided by that speed. The
// kernels never change with the program, so a faster simulator still shows
// as proportionally more operations. Their memory is mapped outside the Go
// heap, so they change neither the allocation figures nor the collector's
// pacing of the phase they bracket.

// Reference rates of the two kernels: their typical rates on the 2-vCPU
// 2.1 GHz x86-64 VM with go1.24 the first baseline was measured on.
const (
	refProbeRate = 74e6  // hash-table updates per second
	refCopyRate  = 3.5e6 // 4 KiB copies per second
)

const (
	calibrateFor = 25 * time.Millisecond
	tableSlots   = 1 << 16 // hash table: 64K key/value slots, 1 MiB
	copyBytes    = 4 << 20 // copy kernel buffer
	copyPage     = 4096    // bytes per copy
	calBytes     = tableSlots*16 + copyBytes
	hashMul      = 0x9E3779B97F4A7C15 // Fibonacci hashing
)

var calTable []uint64 // key, value pairs
var calCopy []byte

// calMemory maps the kernels' memory once, outside the Go heap, and fills
// the hash table with every key.
func calMemory() error {
	if calTable != nil {
		return nil
	}
	mem, err := syscall.Mmap(-1, 0, calBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return err
	}
	calTable = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), 2*tableSlots)
	calCopy = mem[tableSlots*16:]
	for k := uint64(1); k <= tableSlots; k++ {
		slot := k * hashMul >> 48
		for calTable[2*slot] != 0 {
			slot = (slot + 1) % tableSlots
		}
		calTable[2*slot] = k
	}
	return nil
}

// probeRate returns updates per second of pseudo-random keys in a full
// open-addressing hash table: hashing, probing and cache misses, like the
// simulator's maps.
func probeRate(d time.Duration) float64 {
	x := uint64(88172645463325252)
	n := 0
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < 1000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k := x%tableSlots + 1
			slot := k * hashMul >> 48
			for calTable[2*slot] != k {
				slot = (slot + 1) % tableSlots
			}
			calTable[2*slot+1] += x
		}
		n += 1000
	}
	return float64(n) / time.Since(start).Seconds()
}

// copyRate returns 4 KiB copies per second between pseudo-random pages of
// the copy buffer: memory bandwidth, like the simulator's page and blob
// copies.
func copyRate(d time.Duration) float64 {
	const pages = copyBytes / copyPage
	x := uint64(2463534242)
	n := 0
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < 100; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			src, dst := int(x%pages)*copyPage, int((x>>32)%pages)*copyPage
			copy(calCopy[dst:dst+copyPage], calCopy[src:src+copyPage])
		}
		n += 100
	}
	return float64(n) / time.Since(start).Seconds()
}

// hostSpeed returns the host's current speed relative to the reference
// host: the geometric mean of the two kernels' relative rates.
func hostSpeed() float64 {
	return math.Sqrt(probeRate(calibrateFor) / refProbeRate * copyRate(calibrateFor) / refCopyRate)
}
