package index

import (
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"stark/internal/geom"
	"stark/internal/stobject"
	"stark/internal/wal"
)

// TestUnmarshalRejectsV1: format v1 (no checksum footer) was only ever
// written into a process's memory, so a version-1 header is refused like
// any other unknown version instead of being read unverified.
func TestUnmarshalRejectsV1(t *testing.T) {
	data := marshalEnvs(6, randomEnvs(rand.New(rand.NewSource(11)), 64))
	// A v1 file is a v2 file without the footer and with version 1.
	v1 := append([]byte(nil), data[:len(data)-persistFooterSize]...)
	binary.LittleEndian.PutUint16(v1[4:6], 1)
	_, _, err := unmarshal(v1)
	if err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("v1 input: err = %v, want unsupported version 1", err)
	}
}

// TestUnmarshalRejectsEveryCorruptByte is the corrupted-byte table
// test: any single flipped byte in a v2 file — header, entry table or
// footer — must be rejected, never deserialised as garbage envelopes.
func TestUnmarshalRejectsEveryCorruptByte(t *testing.T) {
	data := marshalEnvs(5, randomEnvs(rand.New(rand.NewSource(12)), 40))
	rng := rand.New(rand.NewSource(13))
	for off := 0; off < len(data); off++ {
		mutated := append([]byte(nil), data...)
		mutated[off] ^= byte(1 << rng.Intn(8))
		if _, _, err := unmarshal(mutated); err == nil {
			t.Fatalf("flip at byte %d accepted silently", off)
		}
	}
}

// TestUnmarshalCountValidation plants an untrusted entry count far
// beyond the bytes present: unmarshal must reject it up front rather
// than preallocating gigabytes and failing on the first entry read.
func TestUnmarshalCountValidation(t *testing.T) {
	data := marshalEnvs(4, randomEnvs(rand.New(rand.NewSource(14)), 8))
	for _, count := range []uint32{9, 1 << 20, 0xFFFFFFFF} {
		mutated := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(mutated[8:12], count)
		if _, _, err := unmarshal(mutated); err == nil {
			t.Fatalf("count=%d accepted with only 8 entries of payload", count)
		}
		// The same header lie under a matching checksum (an attacker's
		// file, not a rotted one) must be caught by the length
		// validation alone.
		resealed := append([]byte(nil), mutated[:len(mutated)-persistFooterSize]...)
		resealed = binary.LittleEndian.AppendUint32(resealed, wal.Checksum(resealed))
		_, _, err := unmarshal(resealed)
		if err == nil || !strings.Contains(err.Error(), "header claims") {
			t.Fatalf("resealed count=%d: err = %v, want the length validation to refuse it", count, err)
		}
	}
	// Truncation mid-entry must fail.
	if _, _, err := unmarshal(data[:len(data)-persistFooterSize-7]); err == nil {
		t.Fatal("truncated entry table accepted")
	}
}

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	rows := randomRows(rand.New(rand.NewSource(15)), 100)
	l, perm := Lay(5, rows, nil, true)
	path := filepath.Join(t.TempDir(), "part-0.idx")
	if err := l.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Replacing an existing file must work (atomic rename semantics).
	if err := l.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path, rows)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tree.len() != 100 || !slices.Equal(got.Tree.perm, perm) || got.Tree.Order() != 5 {
		t.Fatalf("len = %d, order %d, perm equal: %v", got.Tree.len(), got.Tree.Order(), slices.Equal(got.Tree.perm, perm))
	}
	for pos := range got.Rows {
		if got.Rows[pos].Value != l.Rows[pos].Value {
			t.Fatalf("position %d holds row %d, the saved layout row %d", pos, got.Rows[pos].Value, l.Rows[pos].Value)
		}
	}
	if err := got.Check(nil); err != nil {
		t.Fatal(err)
	}
	// The file fits only the rows it was saved from.
	moved := slices.Clone(rows)
	moved[3].Key = stobject.New(geom.NewPoint(-5, -5))
	if _, err := LoadFile(path, moved); err == nil || !strings.Contains(err.Error(), "entry 3") {
		t.Fatalf("a moved row: err = %v", err)
	}
	if _, err := LoadFile(path, rows[:99]); err == nil {
		t.Fatal("a row count mismatch must fail")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing"), rows[:0]); err == nil {
		t.Fatal("loading a missing file must fail")
	}
}
