package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
)

// The WAL frame: a fixed 8-byte header — payload length then the
// IEEE CRC32 of the payload — followed by the payload bytes. A record
// is valid only if the full frame is present and the checksum matches;
// anything else at the tail of the file is the signature of a crash
// mid-append and is truncated away on open. A checksum mismatch that
// is *followed by more data* is genuine corruption (bit rot, a torn
// middle), which replay refuses rather than silently skipping — a
// store with a hole in its history cannot promise exactly-once.
const walHeaderLen = 8

// maxWALRecord bounds a single record, protecting replay from a
// corrupted length field allocating gigabytes.
const maxWALRecord = 64 << 20

var errCorruptWAL = errors.New("store: corrupt WAL record before tail")

// wal is the append-only log file. Frame writes are serialized by the
// owning Store's mutex; durability is group-committed — concurrent
// appenders write their frames back-to-back, then one of them (the
// leader) fsyncs once for the whole cohort while the rest wait on the
// condvar. See writeFrame / waitDurable.
type wal struct {
	f    *os.File
	size int64

	// Group-commit state, all guarded by the owning Store's mutex
	// (attached via attach). synced is the durable high-water mark;
	// syncing marks a leader's fsync in flight; waiters counts appenders
	// between writeFrame and acknowledgment (compaction must not cut the
	// log under them); err poisons the log after a failed fsync or a
	// close — once a sync is lost, no later append may be acknowledged.
	cond    *sync.Cond
	synced  int64
	syncing bool
	waiters int
	err     error
	// syncs counts leader fsyncs — the group-commit effectiveness
	// metric (acknowledged appends per fsync).
	syncs int64
}

// attach wires the wal's group-commit condvar to the owner's mutex.
// Must be called before the first Append.
func (w *wal) attach(mu *sync.Mutex) { w.cond = sync.NewCond(mu) }

// openWAL opens (creating if needed) the log at path, replays every
// valid record into the returned slice, truncates a torn tail, and
// leaves the file positioned for appends.
func openWAL(path string) (*wal, [][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	records, valid, err := scanWAL(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if fi.Size() > valid {
		// Crash mid-append: drop the torn frame so the next append
		// starts on a clean boundary.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &wal{f: f, size: valid, synced: valid}, records, nil
}

// scanWAL reads frames from the start of f, returning the decoded
// payloads and the offset of the last valid frame end. A short or
// checksum-failing frame at EOF is a torn tail (not an error); the
// same anywhere before EOF is errCorruptWAL. A frame whose declared
// end lies past EOF is torn before its payload is allocated, so a
// garbage length in a torn header costs nothing.
func scanWAL(f *os.File) (records [][]byte, valid int64, err error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	size := fi.Size()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	r := io.Reader(f)
	var off int64
	hdr := make([]byte, walHeaderLen)
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			if err == io.EOF {
				return records, off, nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return records, off, nil // torn header at tail
			}
			return nil, 0, err
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		// tail reports whether the file holds no data past this frame's
		// declared end — i.e. a bad frame here is the final one, so it
		// can be attributed to a torn append rather than mid-file
		// corruption.
		end := off + walHeaderLen + int64(length)
		tail := size <= end
		if length > maxWALRecord {
			// A garbage length field: a torn append if nothing follows
			// the frame's declared end, corruption otherwise.
			if !tail {
				return nil, 0, errCorruptWAL
			}
			return records, off, nil
		}
		if end > size {
			return records, off, nil // torn payload at tail
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return records, off, nil // torn payload at tail
			}
			return nil, 0, err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			if tail {
				return records, off, nil
			}
			return nil, 0, errCorruptWAL
		}
		records = append(records, payload)
		off = end
	}
}

// appendFrame appends payload's WAL frame (header, then payload) to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = slices.Grow(dst, walHeaderLen+len(payload))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// writeFrame frames and writes one payload without syncing, returning
// the file offset the frame ends at — the durability target to pass to
// waitDurable. Caller holds the owning mutex.
func (w *wal) writeFrame(payload []byte) (int64, error) {
	if w.err != nil {
		return 0, w.err
	}
	if len(payload) > maxWALRecord {
		return 0, fmt.Errorf("store: record of %d bytes exceeds limit", len(payload))
	}
	frame := appendFrame(nil, payload)
	if _, err := w.f.Write(frame); err != nil {
		return 0, fmt.Errorf("store: WAL append: %w", err)
	}
	w.size += int64(len(frame))
	return w.size, nil
}

// waitDurable blocks until the log is durable through end (group
// commit). Caller holds the owning mutex; the mutex is released while
// the leader's fsync runs, letting concurrent appenders write their
// frames behind it — the next round's single fsync then covers them
// all. On a sync failure every cohort member gets the error and the
// log is poisoned: a WAL that lost an fsync cannot promise anything
// about subsequent acknowledgments.
func (w *wal) waitDurable(end int64) error {
	w.waiters++
	defer func() {
		w.waiters--
		if w.waiters == 0 {
			// Wake anyone waiting for quiescence (compaction, close).
			w.cond.Broadcast()
		}
	}()
	for {
		if w.err != nil {
			return w.err
		}
		if w.synced >= end {
			return nil
		}
		if !w.syncing {
			// Become the leader: sync everything written so far, which
			// includes our own frame (end <= w.size always holds here).
			w.syncing = true
			target := w.size
			w.syncs++
			w.cond.L.Unlock()
			err := w.f.Sync()
			w.cond.L.Lock()
			w.syncing = false
			if err != nil {
				w.err = fmt.Errorf("store: WAL sync: %w", err)
			} else if target > w.synced {
				w.synced = target
			}
			w.cond.Broadcast()
			continue
		}
		w.cond.Wait()
	}
}

// quiescent reports whether no append is mid-flight: everything written
// is durable and no appender is waiting. Only in this state may the
// log be truncated out from under the group-commit machinery. A
// poisoned log with no waiters counts as quiescent — synced can never
// catch up to size again, and there is no cohort left to protect.
// Caller holds the owning mutex.
func (w *wal) quiescent() bool {
	if w.syncing || w.waiters > 0 {
		return false
	}
	return w.err != nil || w.synced == w.size
}

// Size returns the current WAL length in bytes.
func (w *wal) Size() int64 { return w.size }

// Truncate empties the log (after a successful snapshot). Caller holds
// the owning mutex and must have observed quiescent().
func (w *wal) Truncate() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.size = 0
	w.synced = 0
	return nil
}

// Close syncs and closes the file, poisoning the group-commit state so
// any straggling waiter errors out instead of blocking forever.
func (w *wal) Close() error {
	w.err = errors.New("store: closed")
	if w.cond != nil {
		w.cond.Broadcast()
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
