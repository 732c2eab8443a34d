package index

import (
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"stark/internal/geom"
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
	envs := randomEnvs(rand.New(rand.NewSource(15)), 100)
	tr, perm := Pack(5, len(envs), func(i int) geom.Envelope { return envs[i] })
	env := func(pos int) geom.Envelope { return envs[perm[pos]] }
	path := filepath.Join(t.TempDir(), "part-0.idx")
	if err := tr.SaveFile(path, env); err != nil {
		t.Fatal(err)
	}
	// Replacing an existing file must work (atomic rename semantics).
	if err := tr.SaveFile(path, env); err != nil {
		t.Fatal(err)
	}
	got, gotPerm, err := LoadFile(path, len(envs), func(i int) geom.Envelope { return envs[i] })
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 100 || !slices.Equal(gotPerm, perm) {
		t.Fatalf("len = %d, perm equal: %v", got.Len(), slices.Equal(gotPerm, perm))
	}
	if err := got.Check(env); err != nil {
		t.Fatal(err)
	}
	// The file fits only the rows it was saved from.
	moved := slices.Clone(envs)
	moved[3] = moved[3].ExpandBy(1)
	if _, _, err := LoadFile(path, len(moved), func(i int) geom.Envelope { return moved[i] }); err == nil || !strings.Contains(err.Error(), "entry 3") {
		t.Fatalf("a moved row: err = %v", err)
	}
	if _, _, err := LoadFile(path, 99, func(i int) geom.Envelope { return envs[i] }); err == nil {
		t.Fatal("a row count mismatch must fail")
	}
	if _, _, err := LoadFile(filepath.Join(t.TempDir(), "missing"), 0, nil); err == nil {
		t.Fatal("loading a missing file must fail")
	}
}
