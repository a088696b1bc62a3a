// Package backendsvc promotes the in-process enterprise backend
// (internal/backend) to a durable, multi-tenant service: the §II-A
// "hierarchy of servers" run as one daemon. Each tenant (one enterprise
// namespace — a building, a campus, a customer) owns an isolated
// backend.Backend guarded by a bearer key, made durable by a write-ahead
// effect log with snapshot compaction, and exposed over the versioned /v1
// HTTP surface (http.go) that internal/backendclient speaks.
package backendsvc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The log uses a self-delimiting frame per record:
//
//	[u32 length][u32 crc32][u64 seq][payload]
//
// where length covers seq+payload and the CRC (IEEE) covers the same bytes.
// Appends are fsynced before the operation is acknowledged, so an
// acknowledged churn op survives a crash. A torn tail — the partial frame a
// crash mid-write leaves behind — fails the length or CRC check and replay
// stops at the last intact record: exactly the prefix of acknowledged
// operations. Sequence numbers are assigned by the WAL and keep increasing
// across compactions; the snapshot header records the last sequence it
// covers, so a crash between snapshot write and log truncation cannot
// double-apply (replay skips records at or below the snapshot's seq).

const walFrameHeader = 8 // u32 length + u32 crc32

// ErrCorruptWAL marks a log whose intact prefix ended (torn tail or bit rot).
// It is informational: recovery keeps the prefix and truncates the rest.
var ErrCorruptWAL = errors.New("backendsvc: corrupt WAL record")

// Record is one replayable entry.
type Record struct {
	Seq     uint64
	Payload []byte
}

// WAL is an append-only, fsynced effect log.
type WAL struct {
	f    *os.File
	path string
	seq  uint64 // last sequence number handed out
	size int64
}

// OpenWAL opens (creating if absent) the log at path and scans its intact
// record prefix. A torn or corrupt tail is truncated away — those records
// were never acknowledged. The returned records are in append order.
func OpenWAL(path string) (*WAL, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, nil, err
	}
	recs, good, err := scanWAL(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Drop any torn tail so the next append starts on a frame boundary.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &WAL{f: f, path: path, size: good}
	if n := len(recs); n > 0 {
		w.seq = recs[n-1].Seq
	}
	return w, recs, nil
}

// scanWAL reads records until EOF or the first damaged frame, returning the
// intact records and the byte offset where the intact prefix ends.
func scanWAL(f *os.File) ([]Record, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	var (
		recs []Record
		off  int64
		hdr  [walFrameHeader]byte
	)
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return recs, off, nil // clean EOF or torn header: stop here
		}
		length := binary.BigEndian.Uint32(hdr[0:4])
		crc := binary.BigEndian.Uint32(hdr[4:8])
		if length < 8 || length > 1<<30 {
			return recs, off, nil // nonsense length: torn tail
		}
		body := make([]byte, length)
		if _, err := io.ReadFull(f, body); err != nil {
			return recs, off, nil // torn body
		}
		if crc32.ChecksumIEEE(body) != crc {
			return recs, off, nil // bit rot / torn rewrite
		}
		recs = append(recs, Record{
			Seq:     binary.BigEndian.Uint64(body[:8]),
			Payload: body[8:],
		})
		off += int64(walFrameHeader) + int64(length)
	}
}

// Append frames, writes and fsyncs one record, returning its sequence
// number. The record is durable when Append returns nil.
func (w *WAL) Append(payload []byte) (uint64, error) {
	w.seq++
	body := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint64(body[:8], w.seq)
	copy(body[8:], payload)
	frame := make([]byte, walFrameHeader+len(body))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))
	copy(frame[walFrameHeader:], body)
	if _, err := w.f.Write(frame); err != nil {
		return 0, fmt.Errorf("backendsvc: wal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return 0, fmt.Errorf("backendsvc: wal fsync: %w", err)
	}
	w.size += int64(len(frame))
	return w.seq, nil
}

// Seq returns the last assigned sequence number.
func (w *WAL) Seq() uint64 { return w.seq }

// SetSeq fast-forwards the sequence counter (to a snapshot's last covered
// seq when the log itself is empty). Never moves backwards.
func (w *WAL) SetSeq(n uint64) {
	if n > w.seq {
		w.seq = n
	}
}

// Size returns the current log size in bytes.
func (w *WAL) Size() int64 { return w.size }

// Reset truncates the log after a successful snapshot compaction. The
// sequence counter keeps counting — snapshot headers rely on it.
func (w *WAL) Reset() error {
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
	return nil
}

// Close closes the underlying file.
func (w *WAL) Close() error { return w.f.Close() }

// writeFileAtomic writes data to path via a same-directory temp file,
// fsync and rename, so readers see either the old or the new content —
// never a torn write. The crash-point tests drive every window around it.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
