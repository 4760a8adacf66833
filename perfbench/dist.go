package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/shard"
)

// distHosts in-process worker hosts each grade with distHostWorkers
// simulation goroutines.
const (
	distHosts       = 2
	distHostWorkers = 1
)

// hostSet is a group of shard.Host workers serving loopback TCP, each
// over its own fresh artifact cache. The benchmark runs the accept loops
// and sessions itself so that stop can wait for every session, including
// one still grading a straggler duplicate the coordinator has already
// abandoned.
type hostSet struct {
	specs    []shard.HostSpec
	lns      []net.Listener
	accept   sync.WaitGroup
	sessions sync.WaitGroup
}

// startHosts starts n hosts with caches under dir.
func startHosts(n int, dir string) (*hostSet, error) {
	hs := &hostSet{}
	for i := 0; i < n; i++ {
		c, err := cache.Open(filepath.Join(dir, fmt.Sprintf("host%d", i)))
		if err != nil {
			hs.stop()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			hs.stop()
			return nil, err
		}
		h := shard.NewHost(c)
		hs.lns = append(hs.lns, ln)
		hs.specs = append(hs.specs, shard.HostSpec{Addr: ln.Addr().String()})
		hs.accept.Add(1)
		go func() {
			defer hs.accept.Done()
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				hs.sessions.Add(1)
				go func() {
					defer hs.sessions.Done()
					defer conn.Close()
					_ = h.ServeSession(conn, conn)
				}()
			}
		}()
	}
	return hs, nil
}

// stop closes the listeners and waits until every session has ended.
func (hs *hostSet) stop() {
	for _, ln := range hs.lns {
		ln.Close()
	}
	hs.accept.Wait()
	hs.sessions.Wait()
}

// gradeDist is the traced table5 run's distributed grade: the Phase A
// program graded with shard.GradeDist across distHosts fresh loopback
// hosts in this process, each over a fresh artifact cache, with a fresh
// coordinator cache, so the grade replicates every artifact. Its outcomes
// must match ref, the in-process fault.Simulate of the same program, bit
// for bit; a mismatch or a failed grade counts as a failed operation. It
// reports the shard.* per-layer metrics.
func gradeDist(tr *tracer, root int, e *env, ref *fault.Result, out string, o *outcome) error {
	scratch, err := os.MkdirTemp(out, "dist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	id := tr.begin("shard.start_hosts", root)
	hosts, err := startHosts(distHosts, scratch)
	if err != nil {
		tr.end(id)
		return err
	}
	coord, err := cache.Open(filepath.Join(scratch, "coordinator"))
	tr.end(id)
	if err != nil {
		hosts.stop()
		return err
	}

	id = tr.begin("shard.grade_dist", root)
	res, ds, gerr := shard.GradeDist(e.cpu, e.goldens[core.PhaseA], e.faults, shard.DistOptions{
		Hosts:   hosts.specs,
		Workers: distHostWorkers,
		Cache:   coord,
	})
	tr.end(id)
	// Draining times the straggler duplicates the coordinator abandoned
	// and the hosts go on grading: the work a persistent host would carry
	// into the next grade.
	id = tr.begin("shard.drain_hosts", root)
	t0 := time.Now()
	hosts.stop()
	drain := time.Since(t0).Seconds()
	tr.end(id)

	o.attempted++
	if gerr == nil {
		gerr = sameOutcomes(ref, res.DetectedAt, res.SignatureGroups)
	}
	if gerr != nil {
		o.failed++
		o.note("CHECK FAILED: distributed Phase A grade: %v", gerr)
		o.absent("the distributed grade failed", "shard.ship_bytes", "shard.ship_s", "shard.partition_s",
			"shard.merge_s", "shard.redispatched", "shard.host_queue_s", "shard.host_sim_s", "shard.host_imbalance",
			"shard.abandoned_drain_s")
		return nil
	}
	var queue, sim, wallMax, wallSum float64
	for _, h := range ds.Hosts {
		queue += float64(h.QueueNs) / 1e9
		sim += float64(h.SimNs) / 1e9
		w := float64(h.WallNs) / 1e9
		wallMax = max(wallMax, w)
		wallSum += w
	}
	o.setLayer("shard.ship_bytes", float64(ds.BytesShipped))
	o.setLayer("shard.ship_s", float64(ds.ShipNs)/1e9)
	o.setLayer("shard.partition_s", float64(ds.PartitionNs)/1e9)
	o.setLayer("shard.merge_s", float64(ds.MergeNs)/1e9)
	o.setLayer("shard.redispatched", float64(ds.Redispatched))
	o.setLayer("shard.host_queue_s", queue)
	o.setLayer("shard.host_sim_s", sim)
	o.setLayer("shard.host_imbalance", wallMax/(wallSum/float64(len(ds.Hosts))))
	o.setLayer("shard.abandoned_drain_s", drain)
	o.note("distributed Phase A grade on %d hosts x %d workers: %.3f s, then %.3f s host drain (abandoned duplicates finishing); dist stats:\n%s",
		distHosts, distHostWorkers, sumSpans(tr, "shard.grade_dist"), drain, ds)
	return nil
}
