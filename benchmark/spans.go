package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// span is one timed interval the harness recorded around its own calls:
// a name, when it started and ended (ns since the trace epoch), the span
// that caused it (0 = none) and the operation they both belong to.
type span struct {
	id, parent uint32
	op         uint32
	name       string
	start, end int64
}

// spanBuf collects the spans of one goroutine in memory; buffers are
// merged and written out only when the benchmark ends, so recording
// costs an append and two clock reads.
type spanBuf struct {
	epoch time.Time
	base  uint32 // ids are base+index+1: unique across buffers
	spans []span
}

func newSpanBuf(epoch time.Time, base uint32, capacity int) *spanBuf {
	return &spanBuf{epoch: epoch, base: base, spans: make([]span, 0, capacity)}
}

func (b *spanBuf) now() int64 { return int64(time.Since(b.epoch)) }

// add records a finished span and returns its id, so children recorded
// afterwards can name it — or, for a parent that closes last, reserve
// the id first with open and fill it in with end.
func (b *spanBuf) add(name string, parent, op uint32, start, end int64) uint32 {
	id := b.base + uint32(len(b.spans)) + 1
	b.spans = append(b.spans, span{id: id, parent: parent, op: op, name: name, start: start, end: end})
	return id
}

func (b *spanBuf) open(name string, parent, op uint32, start int64) uint32 {
	return b.add(name, parent, op, start, start)
}

func (b *spanBuf) close(id uint32, end int64) { b.spans[id-b.base-1].end = end }

// writeSpans writes every buffer as one JSON object per line.
func writeSpans(path string, bufs ...*spanBuf) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, b := range bufs {
		if b == nil {
			continue
		}
		for _, s := range b.spans {
			line = append(line[:0], `{"id":`...)
			line = strconv.AppendUint(line, uint64(s.id), 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendUint(line, uint64(s.parent), 10)
			line = append(line, `,"op":`...)
			line = strconv.AppendUint(line, uint64(s.op), 10)
			line = append(line, `,"name":"`...)
			line = append(line, s.name...)
			line = append(line, `","start_ns":`...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, "}\n"...)
			if _, err := w.Write(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
