package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"stark/internal/geom"
	"stark/internal/wal"
)

// This file implements persistent indexing: STARK's index() mode
// serialises the per-partition R-trees to files so subsequent programs
// can reuse them without rebuilding. The format is a compact custom
// binary layout (magic, order, entry table); the tree structure is
// reconstructed by re-packing on load, which is deterministic for STR
// and avoids persisting pointers.
//
// Format v2 ends in a CRC32C footer over everything before it, so a
// persisted index that rotted on disk — any flipped byte past the
// magic/version header — is rejected at load instead of deserialising
// into garbage envelopes that would then be served silently. No v1
// file (no footer) was ever written outside a process's memory, so
// there is no v1 reader.

const (
	persistMagic   = uint32(0x5354524B) // "STRK"
	persistVersion = uint16(2)

	// persistHeaderSize is magic + version + order + count.
	persistHeaderSize = 4 + 2 + 2 + 4
	// persistEntrySize is one fixed-width entry: int32 ID plus four
	// float64 envelope bounds.
	persistEntrySize = 4 + 4*8
	// persistFooterSize is the v2 CRC32C footer.
	persistFooterSize = 4
)

// Marshal serialises the tree (built or not) to a byte slice in
// format v2: header, fixed 36-byte entries, CRC32C footer.
func (t *RTree) Marshal() ([]byte, error) {
	buf := make([]byte, 0, persistHeaderSize+len(t.entries)*persistEntrySize+persistFooterSize)
	buf = binary.LittleEndian.AppendUint32(buf, persistMagic)
	buf = binary.LittleEndian.AppendUint16(buf, persistVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(t.order))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.entries)))
	for _, e := range t.entries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.ID))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Env.MinX))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Env.MinY))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Env.MaxX))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Env.MaxY))
	}
	buf = binary.LittleEndian.AppendUint32(buf, wal.Checksum(buf))
	return buf, nil
}

// Unmarshal reconstructs a tree from Marshal output and builds it.
// The input is verified against its CRC32C footer before any entry is
// decoded, and the entry count from the header is validated against
// the bytes actually present before any allocation, so a truncated or
// corrupt file can never demand memory it does not carry.
func Unmarshal(data []byte) (*RTree, error) {
	if len(data) < persistHeaderSize {
		return nil, fmt.Errorf("index: %d bytes is shorter than the header", len(data))
	}
	magic := binary.LittleEndian.Uint32(data[0:4])
	if magic != persistMagic {
		return nil, fmt.Errorf("index: bad magic %#x", magic)
	}
	version := binary.LittleEndian.Uint16(data[4:6])
	order := binary.LittleEndian.Uint16(data[6:8])
	count := binary.LittleEndian.Uint32(data[8:12])

	if version != persistVersion {
		return nil, fmt.Errorf("index: unsupported version %d", version)
	}
	body := data[persistHeaderSize:]
	if len(body) < persistFooterSize {
		return nil, fmt.Errorf("index: v2 file is missing its checksum footer")
	}
	payload := data[:len(data)-persistFooterSize]
	want := binary.LittleEndian.Uint32(data[len(data)-persistFooterSize:])
	if got := wal.Checksum(payload); got != want {
		return nil, fmt.Errorf("index: checksum mismatch (file %#x, computed %#x): persisted index is corrupt", want, got)
	}
	body = body[:len(body)-persistFooterSize]

	// The count header is untrusted: it must match the remaining input
	// length exactly (fixed-width entries) before the entry table is
	// allocated.
	if int64(count)*persistEntrySize != int64(len(body)) {
		return nil, fmt.Errorf("index: header claims %d entries (%d bytes), file carries %d bytes",
			count, int64(count)*persistEntrySize, len(body))
	}

	t := New(int(order))
	t.entries = make([]Entry, 0, count)
	for i := uint32(0); i < count; i++ {
		e := body[i*persistEntrySize:]
		id := int32(binary.LittleEndian.Uint32(e[0:4]))
		minX := math.Float64frombits(binary.LittleEndian.Uint64(e[4:12]))
		minY := math.Float64frombits(binary.LittleEndian.Uint64(e[12:20]))
		maxX := math.Float64frombits(binary.LittleEndian.Uint64(e[20:28]))
		maxY := math.Float64frombits(binary.LittleEndian.Uint64(e[28:36]))
		if math.IsNaN(minX) || math.IsNaN(minY) || math.IsNaN(maxX) || math.IsNaN(maxY) {
			return nil, fmt.Errorf("index: entry %d has NaN bounds", i)
		}
		t.entries = append(t.entries, Entry{
			ID:  id,
			Env: geom.Envelope{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY},
		})
	}
	t.Build()
	return t, nil
}

// SaveFile writes the tree to a file with the crash-safe write-temp +
// fsync + rename contract, replacing any previous index at that path:
// a concurrent LoadFile sees the old index or the new one, never an
// absent or partial file. Persisted indexes and checkpoint segments
// both go through it.
func (t *RTree) SaveFile(path string) error {
	data, err := t.Marshal()
	if err != nil {
		return err
	}
	return wal.WriteFileAtomic(path, data)
}

// LoadFile reads a tree persisted by SaveFile.
func LoadFile(path string) (*RTree, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Unmarshal(data)
}

// BuildFromEnvelopes bulk-loads a tree over envs, using the slice
// index as entry ID — the "live indexing" constructor: a partition's
// contents are put into an R-tree before evaluating a predicate. Like
// Unmarshal it fills the entry table directly: the tree is fresh by
// construction, so Insert's post-Build error path cannot apply.
func BuildFromEnvelopes(order int, envs []geom.Envelope) *RTree {
	t := New(order)
	t.entries = make([]Entry, len(envs))
	for i, e := range envs {
		t.entries[i] = Entry{Env: e, ID: int32(i)}
	}
	t.Build()
	return t
}
