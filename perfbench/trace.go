package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
type span struct {
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	Dur   int64     `json:"dur_ns"`
}

// tracer keeps spans in memory while enabled; write dumps them at exit. A
// nil tracer or a disabled one records nothing, so untraced runs pay one
// branch per call site.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

// enabled reports whether spans are being recorded right now.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// record stores a finished span; a no-op when not recording.
func (t *tracer) record(name string, start time.Time, dur time.Duration) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, Dur: int64(dur)})
	t.mu.Unlock()
}

// durations returns the recorded durations of every span with this name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.Dur))
		}
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

// usOf turns span durations into float samples.
func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}
