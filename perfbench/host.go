package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ridgewalker/internal/rng"
)

// hostInfo is the report header's machine fingerprint.
type hostInfo struct {
	NProc      int
	GOMAXPROCS int
	// EffPar is how many goroutines the host actually runs at once: the
	// work two spinning goroutines finish in the time one takes for its
	// share, measured, not read from nproc.
	EffPar  float64
	L3Bytes int64
	GoVer   string
}

func fingerprint() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		EffPar:     spinParallelism(),
		L3Bytes:    l3Bytes(),
		GoVer:      runtime.Version(),
	}
}

func (h hostInfo) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d effective_parallelism=%.2f L3=%.0fMiB go=%s",
		h.NProc, h.GOMAXPROCS, h.EffPar, float64(h.L3Bytes)/(1<<20), h.GoVer)
}

// spinSink keeps the spin loops from being optimized away.
var spinSink uint64

func spin(n int) uint64 {
	x := uint64(n)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// spinParallelism times a fixed spin on one goroutine, then the same
// spin on two at once: 2·t1/t2 is 2 on two free cores and 1 when the
// host timeslices. Median of three pairs.
func spinParallelism() float64 {
	const n = 20_000_000
	var ratios []float64
	for r := 0; r < 3; r++ {
		t := time.Now()
		spinSink += spin(n)
		t1 := time.Since(t)
		t = time.Now()
		var wg sync.WaitGroup
		var out [2]uint64
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				out[g] = spin(n)
			}(g)
		}
		wg.Wait()
		spinSink += out[0] + out[1]
		ratios = append(ratios, 2*t1.Seconds()/time.Since(t).Seconds())
	}
	return median(ratios)
}

// l3Bytes reads the last-level cache size from sysfs (0 if unknown).
func l3Bytes() int64 {
	var best int64
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lvl, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		if strings.TrimSpace(string(lvl)) != "3" {
			continue
		}
		raw, err := os.ReadFile(dir + "size")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}

// peakRSSMiB is the process's VmHWM.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// liveHeapMiB is the Go heap still in use after a forced collection: the
// memory the program holds, without garbage whose amount depends on when
// the collector last ran.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// gather is the host ceiling for random memory access — the software
// analogue of the paper's Eq.(1), where walk throughput is bounded by
// random-access bandwidth. arena holds a single random cycle, so a
// dependent chase (each load's address is the previous load's value)
// measures latency-bound gathers, and independent gathers (addresses from
// an index stream) measure how many misses the core keeps in flight.
type gather struct {
	arena []uint32
	idx   []uint32
}

// newGather builds an n-entry random cycle (Sattolo) and an index stream.
func newGather(n int, seed uint64) *gather {
	r := rng.New(seed)
	a := make([]uint32, n)
	for i := range a {
		a[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i)
		a[i], a[j] = a[j], a[i]
	}
	idx := make([]uint32, 1<<20)
	for i := range idx {
		idx[i] = uint32(r.Intn(n))
	}
	return &gather{arena: a, idx: idx}
}

var gatherSink uint32

// measureGather times dependent and independent gathers over an array
// the size of the corpus graph's edge arena, as spans in a traced run.
func measureGather(e *env) {
	var g *gather
	timed(e, "host.newGather", func() error {
		g = newGather(1<<corpusScale*16, e.seed)
		return nil
	})
	timed(e, "host.dependent", func() error {
		e.depGather = g.dependent(300 * time.Millisecond)
		return nil
	})
	timed(e, "host.independent", func() error {
		e.indepGather = g.independent(300 * time.Millisecond)
		return nil
	})
}

// dependent chases the cycle for d and returns gathers per second.
func (g *gather) dependent(d time.Duration) float64 {
	var n int64
	p := uint32(0)
	t := time.Now()
	for time.Since(t) < d {
		for i := 0; i < 1<<16; i++ {
			p = g.arena[p]
		}
		n += 1 << 16
	}
	gatherSink += p
	return float64(n) / time.Since(t).Seconds()
}

// independent sums arena entries at streamed indices for d and returns
// gathers per second.
func (g *gather) independent(d time.Duration) float64 {
	var n int64
	var s uint32
	t := time.Now()
	for time.Since(t) < d {
		for _, i := range g.idx {
			s += g.arena[i]
		}
		n += int64(len(g.idx))
	}
	gatherSink += s
	return float64(n) / time.Since(t).Seconds()
}
