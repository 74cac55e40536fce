package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// recordHost adds the host record to the report: CPU counts, Go version,
// CPU model, the last-level cache size next to the workload's computed
// working set, and where the server binary came from.
func (e *env) recordHost(workingSetBytes int64, note string) {
	r := e.rep
	r.host = append(r.host,
		fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()),
		"cpu="+cpuModel(),
		fmt.Sprintf("llc=%s working_set_bytes=%d (%s)", llcSize(), workingSetBytes, note),
	)
	if e.svserver != "" {
		r.host = append(r.host, "svserver built from the tree under test: "+e.svserver)
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcSize reads the size of the highest-level cache cpu0 reports.
func llcSize() string {
	best, size := -1, "unknown"
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			continue
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lv)))
		if sz, err := os.ReadFile(dir + "size"); err == nil && level > best {
			best, size = level, fmt.Sprintf("L%d %s", level, strings.TrimSpace(string(sz)))
		}
	}
	return size
}

// startTimedPhase flushes dirty pages left by set-up (so the timed phase
// does not pay for their writeback) and resets the peak resident set of
// the process running the program (pid, or "self") to its current size, so
// peak_rss_mb is the peak of the timed phase. In process, set-up's garbage
// (e.g. the discarded index builds) is collected and returned to the OS
// first, so neither the starting size nor the GC pacing depends on it.
func startTimedPhase(pid string) error {
	if pid == "self" {
		debug.FreeOSMemory()
	}
	syscall.Sync()
	if err := os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB returns the peak resident set (VmHWM) of a process in MB;
// pid "self" is this process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
