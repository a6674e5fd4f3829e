package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Times are
// nanoseconds since the tracer was created.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	ID     uint64 `json:"id"`     // packet/op/step id shared by one request's spans
	N      uint64 `json:"n"`      // units of work the span covered (packets, iterations)
}

// tracer keeps spans in memory and writes them out once, at exit. A nil
// tracer records nothing, which is how the timed (tracing-off) runs use
// the same code paths.
type tracer struct {
	mu    sync.Mutex // ctl_storm's two connections record concurrently
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, id uint64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, ID: id})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes span i, noting the units of work it covered.
func (t *tracer) end(i int, n uint64) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End, t.spans[i].N = now, n
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		if s.End >= 0 {
			out[s.Name] += time.Duration(s.End - s.Start - child[i])
		}
	}
	return out
}

// summary prints, per span name, how many spans there were, their summed
// duration and their summed self time, largest self time first.
func (t *tracer) summary(workload string) {
	self := t.selfTimes()
	type row struct {
		name  string
		count int
		total time.Duration
	}
	rows := map[string]*row{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.total += time.Duration(s.End - s.Start)
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Printf("%s span %s count %d total_ms %.3f self_ms %.3f\n", workload, n, rows[n].count, ms(rows[n].total), ms(self[n]))
	}
}

// total returns how many spans are named name, their summed duration and
// their summed unit count.
func (t *tracer) total(name string) (count int, d time.Duration, n uint64) {
	if t == nil {
		return 0, 0, 0
	}
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			count++
			d += time.Duration(s.End - s.Start)
			n += s.N
		}
	}
	return count, d, n
}

// write stores the trace as {"workload":..., "spans":[...]} in path.
func (t *tracer) write(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"spans\":[\n", workload)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if i > 0 {
			w.WriteString(",")
		}
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
