package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// memSampler polls the Go runtime's memory classes every few
// milliseconds and keeps the peak of the memory the runtime holds from
// the OS (mapped minus released) since the last take. It reads the
// runtime's own accounting, so it needs no stop-the-world and no file.
type memSampler struct {
	quit chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

var memSamples = []string{"/memory/classes/total:bytes", "/memory/classes/heap/released:bytes"}

func startMemSampler() *memSampler {
	m := &memSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := make([]metrics.Sample, len(memSamples))
		for i, name := range memSamples {
			s[i].Name = name
		}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			held := s[0].Value.Uint64() - s[1].Value.Uint64()
			m.mu.Lock()
			m.peak = max(m.peak, held)
			m.mu.Unlock()
			select {
			case <-m.quit:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// take returns the peak (MB) since the previous take and starts a new
// interval.
func (m *memSampler) take() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peak
	m.peak = 0
	return float64(p) / 1e6
}

// stop ends the sampling goroutine and waits for it.
func (m *memSampler) stop() {
	close(m.quit)
	<-m.done
}
