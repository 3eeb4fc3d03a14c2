package main

import (
	"sort"
	"sync"
	"time"
)

// The sandbox's two cores are shared, and for minutes at a time they run
// everything — a pure CPU loop, an exec, a join, a recovery — about 1.6×
// slower than at other times. A latency measured in such a period says
// how busy the neighbours were, not how fast lb-serve is. So while
// anything is being timed, a yardstick runs beside it: a fixed piece of
// CPU work every few milliseconds, itself timed. Each timed interval is
// then scaled by how much slower than yardstickRefNs the yardstick's
// median was over the same interval. The reported milliseconds are
// milliseconds at the reference speed; reports carry the raw value too.

const (
	// yardstickRefNs is the yardstick's duration in this sandbox's fast
	// periods, measured beside a running workload. It only fixes
	// the unit: any constant would compare two commits equally well.
	yardstickRefNs = 106_000
	yardstickEvery = 10 * time.Millisecond
	yardstickSize  = 2048
)

type calibrator struct {
	mu   sync.Mutex
	at   []time.Time // when each yardstick run ended
	ns   []float64   // how long it took
	stop chan struct{}
	done chan struct{}
}

func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{}), done: make(chan struct{})}
	go c.loop()
	return c
}

func (c *calibrator) loop() {
	defer close(c.done)
	src := make([]int, yardstickSize)
	x := uint64(1)
	for i := range src {
		x = x*6364136223846793005 + 1442695040888963407
		src[i] = int(x >> 33)
	}
	buf := make([]int, yardstickSize)
	t := time.NewTicker(yardstickEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		// The fastest of three back-to-back runs: the first one pays for
		// waking up (cold cache, an idle core), which is not what is being
		// gauged.
		best := time.Duration(1 << 62)
		var t1 time.Time
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			copy(buf, src)
			sort.Ints(buf)
			t1 = time.Now()
			best = min(best, t1.Sub(t0))
		}
		c.mu.Lock()
		c.at = append(c.at, t1)
		c.ns = append(c.ns, float64(best))
		c.mu.Unlock()
	}
}

func (c *calibrator) close() {
	close(c.stop)
	<-c.done
}

// slowdown is how many times slower than the reference the yardstick's
// median ran between from and to (1 when it did not run at all).
func (c *calibrator) slowdown(from, to time.Time) float64 {
	c.mu.Lock()
	lo := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(from) })
	hi := sort.Search(len(c.at), func(i int) bool { return c.at[i].After(to) })
	window := append([]float64(nil), c.ns[lo:hi]...)
	c.mu.Unlock()
	if len(window) == 0 {
		return 1
	}
	return median(window) / yardstickRefNs
}
