// Package checkpoint stores completed search results in an append-only JSONL
// file, one record per line under the caller's two-string key, so a killed
// sweep, discovery or daemon can be restarted with the same journal and
// recompute only what never finished. It builds no keys: every caller keys
// its entries with core.JournalFingerprint, which covers the names, the
// values and the options. The format is deliberately dumb — flat JSON
// lines, flushed record by record — because the failure mode it guards
// against is the process dying at an arbitrary instant: a torn final line
// (the write the kill interrupted) is detected and ignored on reopen, and
// every intact line before it is recovered.
//
// The always-on daemon (internal/daemon) raises the stakes: its journal
// lives for weeks, not one sweep, so Open streams the file instead of
// slurping it (a multi-GB journal costs one bounded buffer, not its own
// size in RSS), Options.Fsync upgrades the per-record flush to a real
// fsync for kill -9 durability, and Compact rewrites the journal through a
// temp-file rename so re-recorded keys and skipped garbage don't grow it
// without bound.
package checkpoint

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"tycos/internal/core"
	"tycos/internal/faultinject"
)

// record is one journal line: a completed pair and its search result.
type record struct {
	X      string      `json:"x"`
	Y      string      `json:"y"`
	Result core.Result `json:"result"`
}

// Options tunes a journal's durability/size trade-offs; the zero value is
// the original sweep behaviour (flush to the OS per record, never fsync,
// never compact).
type Options struct {
	// Fsync forces an fsync after every Record, so a journaled result
	// survives not just a killed process but a lost page cache (power cut,
	// kill -9 followed by a crash). Costs one fsync syscall per record.
	Fsync bool
	// AutoCompactBytes, when positive, triggers Compact from inside Record
	// once the file exceeds this size and more than half of it is dead
	// weight (overwritten keys, skipped garbage, compaction leftovers).
	// 0 never auto-compacts.
	AutoCompactBytes int64
}

// maxLineBytes bounds one journal line: Open skips longer lines as garbage
// without ever holding them in memory whole, and Record refuses to append
// one, so a journal never skips its own records on reopen. A journal line is
// one pair result — a few hundred bytes per accepted window — so 8 MiB is
// far above any legitimate record.
const maxLineBytes = 8 << 20

// Journal is a JSONL-backed core.SweepCheckpoint. It is safe for concurrent
// use by the sweep's workers.
type Journal struct {
	mu        sync.Mutex
	f         *os.File
	done      map[string]core.Result
	path      string
	opts      Options
	fileBytes int64 // size of the journal file, tracked across appends
	liveBytes int64 // bytes a compaction would keep (one line per live key)

	// trailingNewline records whether the last byte seen by load was '\n',
	// so OpenOptions can repair a torn tail before the first append without
	// re-reading the file.
	trailingNewline bool
}

var _ core.SweepCheckpoint = (*Journal)(nil)

// key joins a pair's names unambiguously (series names cannot contain NUL).
func key(x, y string) string { return x + "\x00" + y }

// Open loads the journal at path (creating it if absent) with default
// Options and returns it ready for lookups and appends.
func Open(path string) (*Journal, error) { return OpenOptions(path, Options{}) }

// OpenOptions is Open with explicit durability/size options. The journal is
// read as a bounded stream: memory use is one line buffer regardless of
// file size. Unparsable lines — a torn tail from a killed process, an
// over-long line, or unrelated garbage — are skipped, not fatal; a missing
// trailing newline is repaired before appending so the next record cannot
// be glued onto a torn one.
func OpenOptions(path string, opts Options) (*Journal, error) {
	j := &Journal{done: make(map[string]core.Result), path: path, opts: opts}
	if err := j.load(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if st, err := f.Stat(); err == nil {
		j.fileBytes = st.Size()
	}
	if j.fileBytes > 0 && !j.trailingNewline {
		if _, err := f.WriteString("\n"); err != nil {
			f.Close() //lint:allow errdrop best-effort cleanup; the WriteString error is what the caller sees
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		j.fileBytes++
	}
	j.f = f
	return j, nil
}

// load streams the journal once, recovering every intact line. It fills
// done and liveBytes; a missing file is an empty journal.
func (j *Journal) load() error {
	f, err := os.Open(j.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close() //lint:allow errdrop read-only handle; a close error cannot lose journal bytes

	// ReadSlice hands back the reader's internal buffer, so one line costs
	// at most maxLineBytes of transient memory; anything longer is consumed
	// chunk by chunk and dropped.
	r := bufio.NewReaderSize(f, 64<<10)
	line := make([]byte, 0, 4096)
	overflow := false
	flush := func() {
		defer func() { line, overflow = line[:0], false }()
		if overflow || len(line) == 0 {
			return
		}
		var rec record
		if json.Unmarshal(line, &rec) != nil {
			return
		}
		k := key(rec.X, rec.Y)
		if old, ok := j.done[k]; ok {
			j.liveBytes -= recordLen(rec.X, rec.Y, old)
		}
		j.done[k] = rec.Result
		j.liveBytes += int64(len(line)) + 1
	}
	for {
		chunk, err := r.ReadSlice('\n')
		if n := len(chunk); n > 0 {
			j.trailingNewline = chunk[n-1] == '\n'
			if j.trailingNewline {
				chunk = chunk[:n-1]
			}
		}
		if !overflow {
			if len(line)+len(chunk) > maxLineBytes {
				overflow = true // skip the whole line, stop buffering it
			} else {
				line = append(line, chunk...)
			}
		}
		switch err {
		case nil:
			flush()
		case bufio.ErrBufferFull:
			// Mid-line: keep accumulating (or discarding) chunks.
		case io.EOF:
			// A final line without a newline is the torn tail of a killed
			// writer; flush tolerates it exactly like any garbage line.
			flush()
			return nil
		default:
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
}

// recordLen returns the journal-line length (newline included) the record
// would occupy, for liveBytes accounting.
func recordLen(x, y string, r core.Result) int64 {
	line, err := json.Marshal(record{X: x, Y: y, Result: r})
	if err != nil {
		return 0
	}
	return int64(len(line)) + 1
}

// Lookup returns the journaled result for the pair, if any.
func (j *Journal) Lookup(xName, yName string) (core.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.done[key(xName, yName)]
	return r, ok
}

// Record appends the pair's result to the journal and flushes it to the OS
// (fsyncs it, with Options.Fsync) before reporting success, so a record is
// either durably on its way to disk or the sweep knows it is not.
func (j *Journal) Record(xName, yName string, r core.Result) error {
	if err := faultinject.Fire("checkpoint/record"); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	line, err := json.Marshal(record{X: xName, Y: yName, Result: r})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if len(line)+1 > maxLineBytes {
		return fmt.Errorf("checkpoint: record for (%s, %s) is %d bytes, over the %d line bound", xName, yName, len(line)+1, maxLineBytes)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("checkpoint: journal %s is closed", j.path)
	}
	if faultinject.Enabled() {
		// Chaos path: land half the payload on disk, then cross a kill
		// point, so an armed chaos test produces a genuinely torn line —
		// the exact artifact Open's recovery must skip.
		half := len(line) / 2
		if _, err := j.f.Write(line[:half]); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if err := faultinject.Fire("checkpoint/record.torn"); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if _, err := j.f.Write(append(line[half:], '\n')); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	} else {
		if _, err := j.f.Write(append(line, '\n')); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	if j.opts.Fsync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	k := key(xName, yName)
	if old, ok := j.done[k]; ok {
		j.liveBytes -= recordLen(xName, yName, old)
	}
	j.done[k] = r
	j.liveBytes += int64(len(line)) + 1
	j.fileBytes += int64(len(line)) + 1
	if j.opts.AutoCompactBytes > 0 && j.fileBytes > j.opts.AutoCompactBytes && j.fileBytes > 2*j.liveBytes {
		if err := j.compactLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Compact rewrites the journal to exactly one line per live key, dropping
// overwritten records and unparsable garbage. The rewrite goes through a
// temp file in the same directory, is fsynced, and replaces the journal
// with an atomic rename — a kill at any instant leaves either the old or
// the new journal intact, never a mix.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("checkpoint: journal %s is closed", j.path)
	}
	return j.compactLocked()
}

// compactLocked implements Compact with j.mu held. The temp file sits next
// to the journal so the rename stays within one filesystem (atomic).
func (j *Journal) compactLocked() error {
	tmpPath := j.path + ".compact"
	out, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: compact: %w", err)
	}
	// Deterministic line order: sorted by key. Not required for recovery,
	// but byte-stable compactions are far easier to test and diff.
	keys := make([]string, 0, len(j.done))
	for k := range j.done {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w := bufio.NewWriter(out)
	var written int64
	// discard abandons the half-written temp file: the original journal is
	// untouched, so the compaction error is the only one worth returning.
	discard := func(err error) error {
		out.Close() //lint:allow errdrop best-effort cleanup; the compaction error is what the caller sees
		os.Remove(tmpPath)
		return fmt.Errorf("checkpoint: compact: %w", err)
	}
	for _, k := range keys {
		x, y := splitKey(k)
		line, err := json.Marshal(record{X: x, Y: y, Result: j.done[k]})
		if err != nil {
			return discard(err)
		}
		w.Write(line)     //lint:allow errdrop bufio write errors are sticky; the Flush below surfaces them
		w.WriteByte('\n') //lint:allow errdrop bufio write errors are sticky; the Flush below surfaces them
		written += int64(len(line)) + 1
	}
	if err := w.Flush(); err != nil {
		return discard(err)
	}
	if err := out.Sync(); err != nil {
		return discard(err)
	}
	if err := out.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("checkpoint: compact: %w", err)
	}
	if err := os.Rename(tmpPath, j.path); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("checkpoint: compact: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: compact: %w", err)
	}
	j.f.Close() //lint:allow errdrop old pre-rename handle; its contents are superseded by the compacted file
	j.f = f
	j.fileBytes = written
	j.liveBytes = written
	return nil
}

// splitKey inverts key.
func splitKey(k string) (x, y string) {
	for i := 0; i < len(k); i++ {
		if k[i] == 0 {
			return k[:i], k[i+1:]
		}
	}
	return k, ""
}

// Len reports the number of journaled pairs.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// SizeBytes reports the journal file's current size as tracked across
// appends and compactions.
func (j *Journal) SizeBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fileBytes
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close releases the journal's file handle. Records already written stay on
// disk; the journal can be reopened with Open. The checkpoint/close fault
// point lets chaos tests exercise callers' close-error paths, which a real
// close on a healthy filesystem never hits.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if err == nil {
		err = faultinject.Fire("checkpoint/close")
	}
	return err
}
