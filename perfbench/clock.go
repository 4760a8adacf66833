package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The benchmark runs on shared virtual machines, where the hypervisor
// now and then takes a vCPU away for a while (steal time). A wall time
// that includes those stretches measures the neighbours, not the
// program; on the reference box (METRICS.md) they took up to a tenth of
// a run. Every end-to-end time is therefore taken as steal-corrected
// wall time: the wall time of the interval scaled by the share of the
// vCPU time the process wanted that the host actually gave it,
//
//	wall * cpu / (cpu + steal)
//
// where cpu is the process's user and system time (which the guest
// kernel already keeps free of steal) and steal counts each vCPU's
// steal in the share of the interval that vCPU was busy. On a box
// without steal the two are the same.

// userHz is the tick rate of /proc/stat.
const userHz = 100

// stamp is one reading of the clocks a timed interval needs.
type stamp struct {
	wall time.Time
	cpu  float64     // process user and system seconds
	vcpu []vcpuTicks // per vCPU, from /proc/stat; nil where unavailable
}

// vcpuTicks is one vCPU's cumulative time by kind, in ticks.
type vcpuTicks struct{ busy, idle, steal float64 }

// now reads every clock of a stamp.
func now() stamp {
	return stamp{wall: time.Now(), cpu: cpuSeconds(), vcpu: readVCPUs()}
}

// cpuSeconds is the process's user and system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// readVCPUs parses the per-vCPU lines of /proc/stat (user nice system
// idle iowait irq softirq steal ...), or returns nil.
func readVCPUs() []vcpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	return parseVCPUs(string(b))
}

func parseVCPUs(stat string) []vcpuTicks {
	var out []vcpuTicks
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		var v [8]float64
		for k := range v {
			x, err := strconv.ParseFloat(f[k+1], 64)
			if err != nil {
				return nil
			}
			v[k] = x
		}
		out = append(out, vcpuTicks{
			busy:  v[0] + v[1] + v[2] + v[5] + v[6],
			idle:  v[3] + v[4],
			steal: v[7],
		})
	}
	return out
}

// wallSince is the plain wall time from a to b, in seconds.
func wallSince(a, b stamp) float64 { return b.wall.Sub(a.wall).Seconds() }

// stolen is the steal from a to b that fell on busy vCPUs, in seconds.
func stolen(a, b stamp) float64 {
	if len(a.vcpu) == 0 || len(a.vcpu) != len(b.vcpu) {
		return 0
	}
	total := 0.0
	for i := range a.vcpu {
		busy := b.vcpu[i].busy - a.vcpu[i].busy
		idle := b.vcpu[i].idle - a.vcpu[i].idle
		steal := b.vcpu[i].steal - a.vcpu[i].steal
		share := 1.0
		if busy+idle > 0 {
			share = busy / (busy + idle)
		}
		total += steal * share
	}
	return total / userHz
}

// unstolen is the steal-corrected wall time from a to b, in seconds.
func unstolen(a, b stamp) float64 {
	wall, cpu, steal := wallSince(a, b), b.cpu-a.cpu, stolen(a, b)
	if cpu <= 0 || steal <= 0 {
		return wall
	}
	return wall * cpu / (cpu + steal)
}
