// Package wal implements the write-ahead log and the atomic-file
// primitives behind starkd's durability: an append-only, CRC32C-framed,
// fsync'd record log plus checksummed segment/manifest files, all on a
// real on-disk data directory.
//
// The log is a sequence of segment files wal-NNNNNNNN.log. Each record
// is framed as
//
//	uint32 LE  length of body (1 type byte + payload)
//	uint32 LE  CRC32C (Castagnoli) of body
//	body
//
// Appends go to the newest segment and are fsync'd before Append
// returns — an acknowledged record survives a crash. Replay walks the
// segments in sequence order and stops cleanly at the first torn or
// corrupt record in the NEWEST segment: a crash mid-write leaves at
// most one partial frame at the tail, and everything before it is
// trusted exactly as written (the CRC rejects both truncation inside
// a frame and bit rot within one). A damaged record anywhere else —
// in a non-newest segment, i.e. followed by records that were
// acknowledged after it — is not a crash signature but data loss, and
// Replay surfaces it as an error instead of silently discarding the
// tail. Checkpoints rotate the log to a fresh segment and delete the
// segments the checkpoint made redundant.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// castagnoli is the CRC32C table used for every checksum in this
// package (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of data.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

const (
	// frameHeaderSize is the per-record framing overhead.
	frameHeaderSize = 8
	// maxRecordBytes bounds one record body. An untrusted length
	// header past this is treated as a torn record rather than an
	// allocation request — replay never allocates more than the bytes
	// actually remaining in the segment anyway, but the cap keeps a
	// single record from legitimately growing without bound.
	maxRecordBytes = 256 << 20
	// segmentPattern names segment files within the directory.
	segmentPattern = "wal-%08d.log"
)

// Record is one logged entry: a caller-defined type tag plus payload.
type Record struct {
	Type    byte
	Payload []byte
}

// Stats is a point-in-time snapshot of the log's write counters.
type Stats struct {
	Appends int64 // records appended
	Bytes   int64 // bytes written, including framing
	Syncs   int64 // fsync calls issued by Append
	Seq     int   // current segment sequence number
}

// Log is an append-only record log over segment files in one
// directory. Safe for concurrent use.
type Log struct {
	dir string

	mu   sync.Mutex
	f    *os.File
	seq  int
	size int64

	// failed poisons the log after a fsync failure: once a sync fails
	// the on-disk state of the tail is unknowable, so further appends
	// are refused rather than risking bookkeeping that diverges from
	// the file. The caller's recourse is to crash and recover.
	failed error

	// fsync performs the durability barrier of Append; nil selects
	// (*os.File).Sync. Tests inject failures through it.
	fsync func(f *os.File) error

	appends atomic.Int64
	bytes   atomic.Int64
	syncs   atomic.Int64

	// SyncObserver, when non-nil, receives the duration of every
	// Append fsync — the hook the server uses to feed its fsync
	// latency histogram without this package depending on the metrics
	// kernel. Set it before the first Append.
	SyncObserver func(time.Duration)
}

// segmentPath returns the path of segment seq.
func segmentPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf(segmentPattern, seq))
}

// listSegments returns the sequence numbers present in dir, ascending.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, e := range ents {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), segmentPattern, &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// Open opens (or creates) the log in dir. The newest segment is opened
// for appending; a torn record at its tail — the signature of a crash
// mid-Append — is truncated away so new records never follow garbage.
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	seq := 1
	if len(seqs) > 0 {
		seq = seqs[len(seqs)-1]
	}
	path := segmentPath(dir, seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	// Find the end of the valid prefix and truncate the torn tail.
	valid, err := validPrefixLen(f)
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("wal: scanning %s: %w", path, err)
	}
	if err := f.Truncate(valid); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, err
	}
	l := &Log{dir: dir, f: f, seq: seq, size: valid}
	if len(seqs) == 0 {
		if err := syncDir(dir); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	return l, nil
}

// Stats returns the write counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	seq := l.seq
	l.mu.Unlock()
	return Stats{
		Appends: l.appends.Load(),
		Bytes:   l.bytes.Load(),
		Syncs:   l.syncs.Load(),
		Seq:     seq,
	}
}

// Append frames rec, writes it to the current segment and fsyncs the
// file. When Append returns nil the record is on stable storage; on
// error the caller must treat the write as not having happened (a
// torn frame at the tail is truncated away on the next Open). A
// failed fsync poisons the log: the kernel may have dropped the
// dirty pages, so nothing about the tail can be trusted afterwards,
// and every subsequent Append or Rotate fails until the process
// restarts and recovers.
func (l *Log) Append(rec Record) error {
	n := 1 + len(rec.Payload) // the body: type byte and payload
	if n > maxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes", n)
	}
	frame := make([]byte, frameHeaderSize+n)
	frame[frameHeaderSize] = rec.Type
	copy(frame[frameHeaderSize+1:], rec.Payload)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(n))
	binary.LittleEndian.PutUint32(frame[4:8], Checksum(frame[frameHeaderSize:]))

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: log is closed")
	}
	if l.failed != nil {
		return fmt.Errorf("wal: log poisoned by earlier fsync failure: %w", l.failed)
	}
	if _, err := l.f.Write(frame); err != nil {
		// A short write leaves a torn frame; rewind the offset so a
		// retry does not interleave, and rely on CRC framing for
		// readers.
		_, _ = l.f.Seek(l.size, io.SeekStart)
		_ = l.f.Truncate(l.size)
		return fmt.Errorf("wal: appending record: %w", err)
	}
	start := time.Now()
	sync := l.fsync
	if sync == nil {
		sync = (*os.File).Sync
	}
	if err := sync(l.f); err != nil {
		// The frame's durability is unknown, but its CRC is valid — left
		// in place it would replay as acknowledged. Scrub it like the
		// short-write path, and poison the log so l.size can never fall
		// behind the real file offset (a later Truncate(l.size) off stale
		// bookkeeping would chop an acknowledged record).
		_, _ = l.f.Seek(l.size, io.SeekStart)
		_ = l.f.Truncate(l.size)
		l.failed = err
		return fmt.Errorf("wal: fsync: %w", err)
	}
	if l.SyncObserver != nil {
		l.SyncObserver(time.Since(start))
	}
	l.size += int64(len(frame))
	l.appends.Add(1)
	l.bytes.Add(int64(len(frame)))
	l.syncs.Add(1)
	return nil
}

// Rotate closes the current segment and starts the next one,
// returning the new sequence number. Records appended after Rotate go
// to the new segment; the old ones remain until RemoveBelow.
func (l *Log) Rotate() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, errors.New("wal: log is closed")
	}
	if l.failed != nil {
		return 0, fmt.Errorf("wal: log poisoned by earlier fsync failure: %w", l.failed)
	}
	if err := l.f.Sync(); err != nil {
		return 0, fmt.Errorf("wal: fsync before rotate: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return 0, fmt.Errorf("wal: closing segment %d: %w", l.seq, err)
	}
	seq := l.seq + 1
	path := segmentPath(l.dir, seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: creating segment %d: %w", seq, err)
	}
	if err := syncDir(l.dir); err != nil {
		_ = f.Close()
		return 0, err
	}
	l.f, l.seq, l.size = f, seq, 0
	return seq, nil
}

// RemoveBelow deletes every segment with sequence number < seq — the
// checkpoint's truncation step.
func (l *Log) RemoveBelow(seq int) error {
	seqs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, s := range seqs {
		if s < seq {
			if err := os.Remove(segmentPath(l.dir, s)); err != nil {
				return fmt.Errorf("wal: removing segment %d: %w", s, err)
			}
		}
	}
	return syncDir(l.dir)
}

// Close fsyncs and closes the current segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Replay walks the segments of dir with sequence number >= fromSeq in
// order, invoking fn for each intact record. A torn or corrupt record
// at the tail of the NEWEST segment is the expected signature of a
// crash mid-Append: replay stops cleanly there — no error — because
// everything before it is exactly the valid prefix the writer
// acknowledged. A damaged record in any OLDER segment is a different
// animal: records acknowledged after it exist on disk but can no
// longer be ordered against the lost one, so replay returns an error
// instead of silently booting without them. A non-nil error from fn
// aborts the replay and is returned.
func Replay(dir string, fromSeq int, fn func(seq int, rec Record) error) error {
	seqs, err := listSegments(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	newest := 0
	if len(seqs) > 0 {
		newest = seqs[len(seqs)-1]
	}
	for _, seq := range seqs {
		if seq < fromSeq {
			continue
		}
		data, err := os.ReadFile(segmentPath(dir, seq))
		if err != nil {
			return fmt.Errorf("wal: reading segment %d: %w", seq, err)
		}
		off := 0
		for {
			rec, n, ok := decodeFrame(data[off:])
			if !ok {
				if n < 0 {
					if seq != newest {
						return fmt.Errorf("wal: segment %d is damaged at offset %d but newer segments exist through %d: "+
							"acknowledged records past the damage cannot be replayed", seq, off, newest)
					}
					// Torn tail of the newest segment: the crash
					// signature Open repairs. Everything before it is
					// the acknowledged prefix.
					return nil
				}
				break // clean end of segment
			}
			if err := fn(seq, rec); err != nil {
				return err
			}
			off += n
		}
	}
	return nil
}

// decodeFrame decodes one record frame from b. Returns (rec, n, true)
// for an intact record of n bytes; (_, 0, false) at a clean end of
// input; (_, -1, false) for a torn or corrupt frame.
func decodeFrame(b []byte) (Record, int, bool) {
	if len(b) == 0 {
		return Record{}, 0, false
	}
	if len(b) < frameHeaderSize {
		return Record{}, -1, false
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	crc := binary.LittleEndian.Uint32(b[4:8])
	// The length header is untrusted until the CRC passes: validate it
	// against the bytes actually present before touching the body, so
	// a corrupt length can never demand memory or read out of bounds.
	if length == 0 || length > maxRecordBytes || int64(length) > int64(len(b)-frameHeaderSize) {
		return Record{}, -1, false
	}
	body := b[frameHeaderSize : frameHeaderSize+int(length)]
	if Checksum(body) != crc {
		return Record{}, -1, false
	}
	payload := make([]byte, len(body)-1)
	copy(payload, body[1:])
	return Record{Type: body[0], Payload: payload}, frameHeaderSize + int(length), true
}

// validPrefixLen scans an open segment file and returns the byte
// length of its valid record prefix.
func validPrefixLen(f *os.File) (int64, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, err
	}
	off := 0
	for {
		_, n, ok := decodeFrame(data[off:])
		if !ok {
			return int64(off), nil
		}
		off += n
	}
}

// syncDir fsyncs a directory so renames and creations within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: syncing dir %s: %w", dir, err)
	}
	return nil
}
