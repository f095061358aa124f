package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is recorded with every result, so bandwidth and scaling
// numbers can be read against the machine that produced them.
type hostInfo struct {
	NumCPU     int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	CPUModel   string      `json:"cpuModel"`
	Caches     []cacheInfo `json:"caches"`
	Go         string      `json:"go"`
	OS         string      `json:"os"`
	Arch       string      `json:"arch"`
	MemTotalMB int64       `json:"memTotalMiB"`
}

// cacheInfo is one CPU cache level as the kernel reports it: the size
// of one instance and how many instances serve the online CPUs.
type cacheInfo struct {
	Level     int    `json:"level"`
	Type      string `json:"type"`
	Size      string `json:"size"`
	Instances int    `json:"instances"`
}

func readHost() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPUModel:   procField("/proc/cpuinfo", "model name"),
	}
	if kb, err := strconv.ParseInt(strings.Fields(procField("/proc/meminfo", "MemTotal") + " 0")[0], 10, 64); err == nil {
		h.MemTotalMB = kb / 1024
	}
	h.Caches = readCaches()
	return h
}

// procField returns the value of the first "key: value" line of a
// /proc file, or "" when absent.
func procField(path, key string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// readCaches lists cache levels from sysfs, counting distinct
// shared_cpu_list sets across CPUs as instances.
func readCaches() []cacheInfo {
	type id struct {
		level int
		typ   string
	}
	found := map[id]*cacheInfo{}
	shared := map[id]map[string]bool{}
	var order []id
	cpus, _ := filepath.Glob("/sys/devices/system/cpu/cpu[0-9]*/cache/index[0-9]*")
	for _, dir := range cpus {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(dir, name))
			return strings.TrimSpace(string(b))
		}
		level, err := strconv.Atoi(read("level"))
		if err != nil {
			continue
		}
		k := id{level, read("type")}
		if found[k] == nil {
			found[k] = &cacheInfo{Level: level, Type: k.typ, Size: read("size")}
			shared[k] = map[string]bool{}
			order = append(order, k)
		}
		shared[k][read("shared_cpu_list")] = true
	}
	out := make([]cacheInfo, 0, len(order))
	for _, k := range order {
		c := *found[k]
		c.Instances = len(shared[k])
		out = append(out, c)
	}
	return out
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	f := strings.Fields(procField("/proc/self/status", "VmHWM") + " 0")
	kb, _ := strconv.ParseFloat(f[0], 64)
	return kb / 1024
}

// cpuTimes reads the aggregate jiffies of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal.
func cpuTimes() []int64 {
	out := make([]int64, 8)
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return out
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)[1:] // drop the "cpu" label
	for i := range out {
		if i < len(f) {
			out[i], _ = strconv.ParseInt(f[i], 10, 64)
		}
	}
	return out
}

// cpuShares reports the host's steal and iowait shares of CPU time
// between two cpuTimes readings: time the hypervisor gave other
// guests and time spent waiting on the disk. Both inflate wall times
// without any change to the program.
func cpuShares(a, b []int64) map[string]float64 {
	var total int64
	d := make([]int64, len(a))
	for i := range a {
		d[i] = b[i] - a[i]
		total += d[i]
	}
	if total <= 0 {
		return nil
	}
	return map[string]float64{"steal": float64(d[7]) / float64(total), "iowait": float64(d[4]) / float64(total)}
}
