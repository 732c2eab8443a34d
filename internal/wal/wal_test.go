package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// appendN appends n records with deterministic payloads and returns
// them.
func appendN(t *testing.T, l *Log, n int) []Record {
	t.Helper()
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Type:    byte(i%3 + 1),
			Payload: []byte(fmt.Sprintf("record-%03d:%s", i, bytes.Repeat([]byte{byte(i)}, i%17))),
		}
		if err := l.Append(recs[i]); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	return recs
}

// replayAll collects every replayed record.
func replayAll(t *testing.T, dir string, fromSeq int) []Record {
	t.Helper()
	var got []Record
	if err := Replay(dir, fromSeq, func(_ int, rec Record) error {
		got = append(got, rec)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func assertRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d mismatch: got type=%d payload=%q, want type=%d payload=%q",
				i, got[i].Type, got[i].Payload, want[i].Type, want[i].Payload)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, l, 25)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	assertRecords(t, replayAll(t, dir, 0), want)

	if st := mustOpenStats(t, dir); st.Seq != 1 {
		t.Fatalf("segment seq = %d, want 1", st.Seq)
	}
}

func mustOpenStats(t *testing.T, dir string) Stats {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	return l.Stats()
}

func TestRotateAndRemoveBelow(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := appendN(t, l, 5)
	seq, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("Rotate returned seq %d, want 2", seq)
	}
	var second []Record
	for i := 0; i < 4; i++ {
		rec := Record{Type: 9, Payload: []byte(fmt.Sprintf("post-rotate-%d", i))}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		second = append(second, rec)
	}
	// Replay everything, then only the suffix, then truncate.
	assertRecords(t, replayAll(t, dir, 0), append(append([]Record{}, first...), second...))
	assertRecords(t, replayAll(t, dir, seq), second)
	if err := l.RemoveBelow(seq); err != nil {
		t.Fatal(err)
	}
	assertRecords(t, replayAll(t, dir, 0), second)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTornWriteBattery is the core crash-safety property: truncating
// the log at EVERY byte boundary must replay exactly the records whose
// frames fit entirely in the prefix — never a panic, never a partial
// record, never a record past the damage point.
func TestTornWriteBattery(t *testing.T) {
	master := t.TempDir()
	l, err := Open(master)
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, l, 12)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := segmentPath(master, 1)
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries: prefix length -> number of complete records.
	boundaries := make([]int, 0, len(want)+1)
	off := 0
	boundaries = append(boundaries, 0)
	for {
		_, n, ok := decodeFrame(data[off:])
		if !ok {
			break
		}
		off += n
		boundaries = append(boundaries, off)
	}
	if off != len(data) {
		t.Fatalf("segment has %d trailing bytes after %d records", len(data)-off, len(boundaries)-1)
	}
	completeBelow := func(cut int) int {
		n := 0
		for i := 1; i < len(boundaries); i++ {
			if boundaries[i] <= cut {
				n = i
			}
		}
		return n
	}

	dir := t.TempDir()
	target := segmentPath(dir, 1)
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(target, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := replayAll(t, dir, 0)
		wantN := completeBelow(cut)
		if len(got) != wantN {
			t.Fatalf("cut at byte %d: replayed %d records, want %d", cut, len(got), wantN)
		}
		assertRecords(t, got, want[:wantN])

		// Re-opening for append must truncate the torn tail and keep
		// accepting records.
		l, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at byte %d: Open: %v", cut, err)
		}
		if err := l.Append(Record{Type: 7, Payload: []byte("appended-after-crash")}); err != nil {
			t.Fatalf("cut at byte %d: Append after reopen: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got = replayAll(t, dir, 0)
		if len(got) != wantN+1 {
			t.Fatalf("cut at byte %d: after reopen+append replayed %d records, want %d", cut, len(got), wantN+1)
		}
	}
}

// TestBitFlipBattery flips one byte at every offset: replay must never
// panic and must only return records that are byte-identical to a
// prefix of what was written (a flip can only shorten the replayed
// prefix, never corrupt a surviving record).
func TestBitFlipBattery(t *testing.T) {
	master := t.TempDir()
	l, err := Open(master)
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, l, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segmentPath(master, 1))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	target := segmentPath(dir, 1)
	rng := rand.New(rand.NewSource(42))
	for off := 0; off < len(data); off++ {
		mutated := append([]byte(nil), data...)
		flip := byte(1 << rng.Intn(8))
		mutated[off] ^= flip
		if err := os.WriteFile(target, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		got := replayAll(t, dir, 0)
		if len(got) > len(want) {
			t.Fatalf("flip at byte %d: replayed %d records, wrote only %d", off, len(got), len(want))
		}
		for i, rec := range got {
			if rec.Type != want[i].Type || !bytes.Equal(rec.Payload, want[i].Payload) {
				t.Fatalf("flip at byte %d: record %d corrupted but passed CRC", off, i)
			}
		}
	}
}

// TestHugeLengthHeader plants an absurd length header: replay must
// treat it as torn, not allocate.
func TestHugeLengthHeader(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, l, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := segmentPath(dir, 1)
	frame := make([]byte, frameHeaderSize)
	binary.LittleEndian.PutUint32(frame[0:4], 0xFFFFFFF0)
	binary.LittleEndian.PutUint32(frame[4:8], 0xDEADBEEF)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	assertRecords(t, replayAll(t, dir, 0), want)
}

// TestMidLogCorruptionSurfaces: a damaged record in a non-newest
// segment is data loss, not a crash signature — acknowledged records
// exist after it. Replay must surface it as an error instead of
// silently booting without the tail.
func TestMidLogCorruptionSurfaces(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := appendN(t, l, 4)
	seq, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	var second []Record
	for i := 0; i < 3; i++ {
		rec := Record{Type: 8, Payload: []byte(fmt.Sprintf("post-rotate-%d", i))}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		second = append(second, rec)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte mid-record in segment 1: a full replay must refuse.
	path1 := segmentPath(dir, 1)
	intact, err := os.ReadFile(path1)
	if err != nil {
		t.Fatal(err)
	}
	mutated := append([]byte(nil), intact...)
	mutated[len(mutated)/2] ^= 0x01
	if err := os.WriteFile(path1, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Replay(dir, 0, func(int, Record) error { return nil }); err == nil {
		t.Fatal("mid-log corruption replayed as a clean stop")
	}
	// A suffix replay that starts past the damaged segment (the
	// checkpoint recovery path) never reads it and stays clean.
	assertRecords(t, replayAll(t, dir, seq), second)

	// Restore segment 1 and instead tear the NEWEST segment's tail:
	// the expected crash-mid-Append signature — clean stop, no error.
	if err := os.WriteFile(path1, intact, 0o644); err != nil {
		t.Fatal(err)
	}
	path2 := segmentPath(dir, seq)
	tail, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path2, tail[:len(tail)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	want := append(append([]Record{}, first...), second[:len(second)-1]...)
	assertRecords(t, replayAll(t, dir, 0), want)
}

// TestFsyncFailurePoisonsLog: a failed fsync must scrub the
// unacknowledged frame (so recovery cannot resurrect it) and poison
// the log (so bookkeeping can never diverge from the file).
func TestFsyncFailurePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, l, 2)

	injected := errors.New("injected fsync failure")
	l.fsync = func(*os.File) error { return injected }
	if err := l.Append(Record{Type: 7, Payload: []byte("never-acknowledged")}); !errors.Is(err, injected) {
		t.Fatalf("Append through failing fsync: %v", err)
	}
	// The frame was scrubbed: on-disk length matches the bookkept size.
	fi, err := os.Stat(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != l.size {
		t.Fatalf("file is %d bytes, log accounts for %d", fi.Size(), l.size)
	}

	// Poisoned: appends and rotations fail even with fsync healthy again.
	l.fsync = nil
	if err := l.Append(Record{Type: 7, Payload: []byte("x")}); err == nil {
		t.Fatal("poisoned log accepted an append")
	}
	if _, err := l.Rotate(); err == nil {
		t.Fatal("poisoned log rotated")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery sees exactly the acknowledged records, and a fresh Open
	// (the restart) accepts appends again.
	assertRecords(t, replayAll(t, dir, 0), want)
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(Record{Type: 7, Payload: []byte("after-restart")}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, dir, 0); len(got) != len(want)+1 {
		t.Fatalf("replayed %d records after restart, want %d", len(got), len(want)+1)
	}
}

// TestAppendAllocatesOnce: Append builds the frame in place, type byte
// included, so the frame is its one allocation, and the bytes on disk
// are the length, the CRC32C of the body and the body.
func TestAppendAllocatesOnce(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.fsync = func(*os.File) error { return nil }
	rec := Record{Type: 3, Payload: bytes.Repeat([]byte("batch "), 200)}
	if n := testing.AllocsPerRun(100, func() {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Append allocates %v times, want at most 1", n)
	}
	data, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte{rec.Type}, rec.Payload...)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	frame = binary.LittleEndian.AppendUint32(frame, Checksum(body))
	if frame = append(frame, body...); !bytes.Equal(data[:len(frame)], frame) {
		t.Errorf("first frame on disk is % x..., want % x...", data[:16], frame[:16])
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: 1, Payload: []byte("x")}); err == nil {
		t.Fatal("Append on closed log succeeded")
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	if err := WriteFileAtomic(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "two" {
		t.Fatalf("read %q, want %q", got, "two")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

func TestChecksummedRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	payload := []byte(`{"hello":"world","n":12345}`)
	if err := WriteChecksummed(path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChecksummed(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every single-byte flip and every truncation must be rejected.
	for off := 0; off < len(data); off++ {
		mutated := append([]byte(nil), data...)
		mutated[off] ^= 0x40
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadChecksummed(path); err == nil {
			t.Fatalf("flip at byte %d accepted", off)
		}
	}
	for cut := 0; cut < len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadChecksummed(path); err == nil {
			t.Fatalf("truncation at byte %d accepted", cut)
		}
	}
}

func TestEmptyPayloadRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: 5}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir, 0)
	if len(got) != 1 || got[0].Type != 5 || len(got[0].Payload) != 0 {
		t.Fatalf("got %+v", got)
	}
}
