package main

import (
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hostStamp records the machine shape and provenance of a run, so numbers
// are never compared across hosts by accident.
type hostStamp struct {
	NumCPU         int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	EffectiveCores float64 `json:"effective_cores"`
	GoVersion      string  `json:"go_version"`
	Commit         string  `json:"git_commit"`
	Seed           int64   `json:"seed"`
	SF             float64 `json:"sf"`
}

func stampHost(seed int64, sf float64) hostStamp {
	return hostStamp{
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		EffectiveCores: effectiveCores(),
		GoVersion:      runtime.Version(),
		Commit:         gitCommit(),
		Seed:           seed,
		SF:             sf,
	}
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// work tree (benchmark checkouts are usually plain file trees).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// effectiveCores measures how many cores the process really gets: it
// times a fixed CPU-bound loop on one goroutine, then one copy of it on
// each of GOMAXPROCS goroutines at once. With n cores free the second
// takes as long as the first; a CPU quota or busy neighbours stretch it.
func effectiveCores() float64 {
	const iters = 30_000_000
	spin := func() uint64 {
		x := uint64(88172645463325252)
		for range iters {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		return x
	}
	var sink uint64
	t0 := time.Now()
	sink += spin()
	one := time.Since(t0)

	n := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	var mu sync.Mutex
	t0 = time.Now()
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := spin()
			mu.Lock()
			sink += v
			mu.Unlock()
		}()
	}
	wg.Wait()
	all := time.Since(t0)
	if sink == 0 || all <= 0 {
		return 1
	}
	return float64(n) * one.Seconds() / all.Seconds()
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
