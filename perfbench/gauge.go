package main

import (
	"sync/atomic"
	"time"
)

// The host gauge is a fixed kernel, independent of the program, that
// each measured unit runs on its own thread just before it steps. The
// 2-vCPU guest this benchmark runs on shares its physical cores and
// caches with other tenants, and for minutes at a time the same trial
// costs up to a third more CPU time. The gauge slows with it, so the
// end-to-end rates are scaled by how slow the gauge ran beside each unit
// (see rateAtNominal); a program change moves the rates and leaves the
// gauge alone.
const (
	gaugeEntries = 1 << 17 // a 512 KiB table: the size class of reduce-rr's graph and slab
	gaugeReads   = 1 << 17
	// gaugeFlush is streamed before each timed pass: twice the 2 MiB L2
	// of the vCPU, so the pass always starts with the table out of the
	// core's own cache, whatever the previous unit left there.
	gaugeFlush = 4 << 20
	// gaugeNominal is about the timed pass's CPU time on a quiet host
	// (2-vCPU KVM guest of a 2.1 GHz Xeon); scaled rates are the rates on
	// a host where the gauge takes this long.
	gaugeNominal = 550 * time.Microsecond
)

// gaugeTable is a random functional graph on gaugeEntries nodes, built
// from a fixed seed so every run and every commit gauges with the same
// table.
var gaugeTable = func() []int32 {
	t := make([]int32, gaugeEntries)
	x := uint64(0x2545f4914f6cdd1d)
	for i := range t {
		x = xorshift(x)
		t[i] = int32((x >> 32) * gaugeEntries >> 32)
	}
	return t
}()

// gaugeFlushBuf is written once so its pages are its own: untouched
// pages all map the kernel's one zero page and would flush nothing.
var gaugeFlushBuf = func() []int64 {
	b := make([]int64, gaugeFlush/8)
	for i := range b {
		b[i] = int64(i)
	}
	return b
}()

// gaugeSink keeps the compiler from dropping the reads; pool workers
// gauge concurrently, so it is updated atomically.
var gaugeSink atomic.Int64

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// gaugePass makes gaugeReads pairs of dependent random reads through the
// table.
func gaugePass(seed uint64) int64 {
	x, n := seed|1, uint64(len(gaugeTable))
	var s int64
	for i := 0; i < gaugeReads; i++ {
		x = xorshift(x)
		s += int64(gaugeTable[gaugeTable[(x>>32)*n>>32]])
	}
	return s
}

// gauge streams the flush buffer through the core's cache and returns
// the CPU time of one pass over the table, which then reads from the
// shared cache and memory the other tenants contend for. The caller pins
// its goroutine to its thread.
func gauge() time.Duration {
	var s int64
	for i := 0; i < len(gaugeFlushBuf); i += 8 {
		s += gaugeFlushBuf[i]
	}
	c0 := threadCPU()
	s += gaugePass(2)
	d := threadCPU() - c0
	gaugeSink.Add(s)
	return d
}

// rateAtNominal is count per second of the unit's CPU time, scaled by
// the unit's gauge time over gaugeNominal: the rate the unit would have
// reached on a host where the gauge takes gaugeNominal.
func rateAtNominal(count float64, u unitStat) float64 {
	return ratio(count*u.gauge.Seconds(), u.cpu.Seconds()*gaugeNominal.Seconds())
}
