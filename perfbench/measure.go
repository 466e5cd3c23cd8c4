package main

import (
	"bytes"
	"os"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mpstream/internal/hoststream"
	"mpstream/internal/kernel"
)

// processCPU returns the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssWatch samples the resident set while passes run, so the peak
// excludes the host-bandwidth sentinel's arrays.
type rssWatch struct {
	quit chan struct{}
	done chan struct{}
	peak int64 // bytes; written by the watcher goroutine until done closes
}

// rssInterval is how often the resident set is sampled.
const rssInterval = 10 * time.Millisecond

func watchRSS() *rssWatch {
	w := &rssWatch{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			if r := residentBytes(); r > w.peak {
				w.peak = r
			}
			select {
			case <-w.quit:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// stop ends sampling and returns the peak resident set in MB.
func (w *rssWatch) stop() float64 {
	close(w.quit)
	<-w.done
	return float64(w.peak) / (1 << 20)
}

// residentBytes reads the process's current resident set from
// /proc/self/statm (0 where it is unavailable).
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// Host STREAM sentinel sizes: 64 MiB per array (three arrays), well
// beyond per-core caches; the smoke-sized run uses 4 MiB.
const (
	sentinelElems        = 8 << 20
	sentinelMinimalElems = 512 << 10
)

// hostCopyGBps measures the host's real copy bandwidth with the Go
// STREAM port, so a run on a noisy host shows as such beside its
// timings. It returns 0 if the measurement fails.
func hostCopyGBps(minimal bool) float64 {
	elems := sentinelElems
	if minimal {
		elems = sentinelMinimalElems
	}
	res, err := hoststream.Run(hoststream.Config{Elems: elems, NTimes: 3, Workers: simThreads})
	// Hand the sentinel's arrays back before anything measures memory.
	debug.FreeOSMemory()
	if err != nil {
		return 0
	}
	return res.Kernel(kernel.Copy).GBps
}

// profile runs f under the CPU profiler and returns the profile.
func profile(f func() error) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := f()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

// shareLayers are the buckets cpuShares reports, each as
// <layer>.cpu_share: the program's layers, then the Go runtime, the
// benchmark's own code and everything else.
var shareLayers = []string{
	"mem", "cache", "dram", "sample", "device", "cl", "core", "surface",
	"search", "service", "http", "cluster", "experiments",
	"runtime", "bench", "other",
}

// cpuShares buckets the flat samples of CPU profiles by the package of
// their leaf function and returns each layer's share of all samples.
func cpuShares(profs [][]byte) (map[string]float64, error) {
	counts := make(map[string]int64)
	var total int64
	for _, prof := range profs {
		leaves, err := leafSamples(prof)
		if err != nil {
			return nil, err
		}
		for _, l := range leaves {
			counts[layerOf(l.function, l.file)] += l.samples
			total += l.samples
		}
	}
	shares := make(map[string]float64, len(shareLayers))
	for _, layer := range shareLayers {
		shares[layer] = float64(counts[layer]) / float64(max(total, 1))
	}
	return shares, nil
}

// packageOf returns the import path of a symbol name such as
// "mpstream/internal/sim/cache.(*Cache).Access".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf maps a leaf function to its layer. The job engine and the
// HTTP handlers share a package, so the handlers' file separates them.
func layerOf(fn, file string) string {
	pkg := packageOf(fn)
	if rest, ok := strings.CutPrefix(pkg, "mpstream/internal/"); ok {
		switch rest {
		case "sim/mem":
			return "mem"
		case "sim/cache":
			return "cache"
		case "sim/dram":
			return "dram"
		case "sim/sample":
			return "sample"
		case "sim/link", "sim/clock", "fabric":
			return "device"
		case "cl", "kernel":
			return "cl"
		case "core", "stats":
			return "core"
		case "surface":
			return "surface"
		case "dse", "dse/search":
			return "search"
		case "service":
			if strings.HasSuffix(file, "/handlers.go") {
				return "http"
			}
			return "service"
		case "obs", "progress", "runstate", "baseline":
			return "service"
		case "cluster", "shard":
			return "cluster"
		case "experiments", "paperdata", "report":
			return "experiments"
		}
		if strings.HasPrefix(rest, "device") {
			return "device"
		}
		return "other"
	}
	switch {
	case pkg == "main", pkg == "mpstream/perfbench":
		return "bench"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"),
		pkg == "sync", strings.HasPrefix(pkg, "sync/"):
		return "runtime"
	case pkg == "net", strings.HasPrefix(pkg, "net/"), pkg == "internal/poll", pkg == "syscall",
		pkg == "encoding/json", pkg == "bufio", pkg == "mime":
		return "http"
	}
	return "other"
}
