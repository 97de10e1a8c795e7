package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed probe. The reference machine is a VM that shares its
// cores and memory with other tenants, and the same code takes up to
// 1.7 times as long, for minutes at a time, while they are busy. So the
// measured phase stops its clients once a second and times fixed code
// on both cores: a probe slice. The run's host slowdown compares the
// probe's times with its times on the quiet reference machine, and the
// time metrics are reported divided by it (README.md).
//
// The probe shares no code or memory with the program: it uses only
// the standard library and its own memory, mapped outside the Go heap
// so that it adds nothing to the heap the collector paces itself by and
// scans, and it runs while no request is in flight. It times each unit
// by the CPU time of its own locked thread, which leaves out any time
// the thread waited, for a garbage collection cycle still under way or
// anything else.

// probeThreads is how many threads time the probe at once: one per
// core, as the clients load both cores of the reference machine.
const probeThreads = clients

// probeUnits is how many units of each kernel a thread times in one
// slice. A slice takes about 2 ms.
const probeUnits = 16

// probeEvery is how long the clients run between probe slices.
const probeEvery = time.Second

// kernel is one kind of fixed work. nominal is the median time of one
// unit on the reference machine when it is quiet, so a slowdown of 1
// means quiet.
type kernel struct {
	name    string
	nominal time.Duration
	run     func(thread int) uint64
}

// kernels are the probe's work: arithmetic on a table in L1, which
// only the core's speed limits, and pointer chasing across 4000 pages
// of 16 MiB, which memory latency limits. Other tenants slow both, by
// different amounts, and the program needs both, so the host slowdown
// is the product of the two kernels' slowdowns. On the reference
// machine, over three sets of runs of all four workloads, the
// program's CPU time and latency per op moved with that product (log
// slope 0.7–1.2 and correlation 0.88–0.99 per workload); taken alone,
// each kernel moved about half as much as the program.
var kernels = [...]kernel{
	{"arith", 70 * time.Microsecond, func(t int) uint64 {
		var buf [512]uint64
		x := uint64(t + 1)
		for i := 0; i < 40000; i++ {
			x = lcg(x)
			buf[x>>55] += x
		}
		return buf[t]
	}},
	{"chase-pages", 62 * time.Microsecond, func(t int) uint64 {
		return chase(probeMem.pages, uint32(t)*7919, 4000)
	}},
}

// probeMem is the chase kernel's memory, mapped once per process.
var probeMem struct {
	once  sync.Once
	err   error
	pages []uint32 // a one-cycle permutation of 16 MiB
}

const pagesLen = 1 << 22

// initProbe maps and fills the kernels' memory, once. The mapping lasts
// as long as the process.
func initProbe() error {
	probeMem.once.Do(func() {
		b, err := syscall.Mmap(-1, 0, pagesLen*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
		if err != nil {
			probeMem.err = fmt.Errorf("map probe memory: %w", err)
			return
		}
		probeMem.pages = cycle(unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), pagesLen))
	})
	return probeMem.err
}

// cycle fills p with a random permutation of one cycle through all its
// indices (Sattolo's algorithm), so that following it visits every
// element.
func cycle(p []uint32) []uint32 {
	for i := range p {
		p[i] = uint32(i)
	}
	x := uint64(1)
	for i := len(p) - 1; i > 0; i-- {
		x = lcg(x)
		j := (x >> 33) % uint64(i)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func chase(p []uint32, j uint32, steps int) uint64 {
	for i := 0; i < steps; i++ {
		j = p[j]
	}
	return uint64(j)
}

func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// probeSink keeps the kernels' results alive.
var probeSink [probeThreads]uint64

// threadCPU is the CPU time of the calling thread.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// kernelTimes holds a time per kernel, in nanoseconds.
type kernelTimes [len(kernels)]float64

// probeSlice times probeUnits units of every kernel on each of
// probeThreads locked threads at once. It returns each kernel's median
// unit time and the CPU time the threads used. initProbe must have
// succeeded.
func probeSlice() (kernelTimes, time.Duration) {
	var units [len(kernels)][probeThreads * probeUnits]float64
	var used [probeThreads]time.Duration
	var wg sync.WaitGroup
	for t := 0; t < probeThreads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			start := threadCPU()
			for k := range kernels {
				for i := t * probeUnits; i < (t+1)*probeUnits; i++ {
					t0 := threadCPU()
					probeSink[t] += kernels[k].run(t)
					units[k][i] = float64(threadCPU() - t0)
				}
			}
			used[t] = threadCPU() - start
		}()
	}
	wg.Wait()
	var med kernelTimes
	for k := range units {
		s := units[k][:]
		sort.Float64s(s)
		med[k] = (s[(len(s)-1)/2] + s[len(s)/2]) / 2
	}
	var cpu time.Duration
	for _, d := range used {
		cpu += d
	}
	return med, cpu
}

// slowdown is the host slowdown over a run's slices: the product of the
// kernels' slowdowns. Without slices it is 1.
func slowdown(slices []kernelTimes) float64 {
	if len(slices) == 0 {
		return 1
	}
	s := 1.0
	for _, k := range kernelSlowdowns(slices) {
		s *= k
	}
	return s
}

// kernelSlowdowns is each kernel's median time over the slices divided
// by its nominal time.
func kernelSlowdowns(slices []kernelTimes) kernelTimes {
	var out kernelTimes
	for k := range kernels {
		ts := make([]float64, len(slices))
		for i, s := range slices {
			ts[i] = s[k]
		}
		out[k] = median(ts) / float64(kernels[k].nominal)
	}
	return out
}
