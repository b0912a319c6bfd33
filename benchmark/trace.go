package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names. Each span's parent is fixed by its name, and spans of one
// request or step share its id, so (id, parent name) finds the parent.
const (
	spStep    uint8 = iota // one alloc-workload step (benchmark code + calls)
	spMalloc               // alloc.Thread.Malloc, child of step or server
	spFree                 // alloc.Thread.Free, child of step or server
	spRequest              // kv client request, intended send -> reply read
	spServer               // kv server busy: command read -> reply write
	spWrite                // kv reply net.Conn.Write, child of server
)

var spanNames = [...]string{"step", "malloc", "free", "request", "server", "write"}

// span is one recorded interval, in ns since the run's base time.
type span struct {
	name       uint8
	parent     uint8
	id         int64
	start, end int64
}

const noParent = 255

// maxSpans bounds one recorder's memory; later spans are counted, not kept.
const maxSpans = 1 << 18

// spanLog is a single goroutine's span buffer.
type spanLog struct {
	spans   []span
	dropped int64
}

func (l *spanLog) add(s span) {
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
}

// clock reads monotonic ns since a shared base.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// selfTimes returns, for every span named parent, its duration minus the
// durations of its children (spans whose parent is that name and whose id
// matches), in microseconds. Children of one parent run sequentially on
// one goroutine, so they never overlap each other.
func selfTimes(spans []span, parent uint8) []float64 {
	child := make(map[int64]int64)
	for _, s := range spans {
		if s.parent == parent {
			child[s.id] += s.end - s.start
		}
	}
	var out []float64
	for _, s := range spans {
		if s.name == parent {
			out = append(out, float64(s.end-s.start-child[s.id])/1e3)
		}
	}
	return out
}

// writeSpans dumps spans as tab-separated lines (name, id, parent,
// start_ns, end_ns) to dir/file.
func writeSpans(dir, file string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tid\tparent\tstart_ns\tend_ns")
	for _, s := range spans {
		parent := "-"
		if s.parent != noParent {
			parent = spanNames[s.parent]
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\n", spanNames[s.name], s.id, parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
