package wal

// Atomic and checksummed file primitives for checkpoint artefacts
// (segment files, manifests). The write contract everywhere is
// write-temp + fsync + rename + dir fsync: a crash at any instant
// leaves either the complete old file, the complete new file, or a
// stray .tmp that readers ignore — never a torn visible file.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// blobMagic marks a checksummed blob file ("STKB").
const blobMagic = uint32(0x53544B42)

// errCorrupt reports a checksummed file whose contents fail
// validation (bad magic, impossible length, CRC mismatch).
var errCorrupt = errors.New("wal: corrupt checksummed file")

// WriteFileAtomic writes data to path with crash-safe replace
// semantics: the bytes land in path.tmp first, are fsync'd, and only
// then renamed over path (followed by a directory fsync). A reader —
// or a rebooting recovery — sees the old contents or the new, never a
// prefix.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: renaming %s: %w", tmp, err)
	}
	return syncDir(filepath.Dir(path))
}

// WriteChecksummed writes data to path atomically, wrapped in a
// checksummed container (magic + length + payload + CRC32C), so a
// reader can distinguish a complete artefact from any torn or
// bit-rotted survivor of a crash.
func WriteChecksummed(path string, data []byte) error {
	buf := make([]byte, 8+len(data)+4)
	binary.LittleEndian.PutUint32(buf[0:4], blobMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(data)))
	copy(buf[8:], data)
	binary.LittleEndian.PutUint32(buf[8+len(data):], Checksum(buf[:8+len(data)]))
	return WriteFileAtomic(path, buf)
}

// ReadChecksummed reads and validates a file written by
// WriteChecksummed, returning the payload. Any validation failure —
// truncation, trailing garbage, bit flips anywhere in the container —
// returns an error wrapping errCorrupt.
func ReadChecksummed(path string) ([]byte, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(buf) < 12 {
		return nil, fmt.Errorf("%w: %s: %d bytes is shorter than the container", errCorrupt, path, len(buf))
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != blobMagic {
		return nil, fmt.Errorf("%w: %s: bad magic", errCorrupt, path)
	}
	length := binary.LittleEndian.Uint32(buf[4:8])
	// Validate the untrusted length against the bytes present before
	// using it: exact fit required, so truncation and garbage tails
	// are both rejected.
	if int64(length) != int64(len(buf)-12) {
		return nil, fmt.Errorf("%w: %s: header says %d payload bytes, file holds %d", errCorrupt, path, length, len(buf)-12)
	}
	want := binary.LittleEndian.Uint32(buf[8+length:])
	if Checksum(buf[:8+length]) != want {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", errCorrupt, path)
	}
	return buf[8 : 8+length], nil
}
