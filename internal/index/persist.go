package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/stobject"
	"stark/internal/wal"
)

// This file implements persistent indexing: STARK's index() mode
// serialises the per-partition R-trees to files so subsequent programs
// can reuse them without rebuilding. The format is a compact custom
// binary layout (magic, order, entry table in item order); the tree
// is reconstructed by re-packing on load, which is deterministic for
// STR, so the file carries no nodes and no layout.
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

// marshal serialises the packed input in format v2: header, one fixed
// 36-byte entry per item in item order (the item number, then item i's
// envelope), CRC32C footer. env(pos) is the envelope of the row at
// position pos; the tree holds no envelopes of its own.
func (t *RTree) marshal(env func(pos int) geom.Envelope) []byte {
	envs := make([]geom.Envelope, len(t.perm))
	for pos, item := range t.perm {
		envs[item] = env(pos)
	}
	buf := make([]byte, 0, persistHeaderSize+len(envs)*persistEntrySize+persistFooterSize)
	buf = binary.LittleEndian.AppendUint32(buf, persistMagic)
	buf = binary.LittleEndian.AppendUint16(buf, persistVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(t.order))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(envs)))
	for i, e := range envs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(i))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.MinX))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.MinY))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.MaxX))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.MaxY))
	}
	return binary.LittleEndian.AppendUint32(buf, wal.Checksum(buf))
}

// unmarshal decodes marshal output: the tree order and the items'
// envelopes (envs[i] is item i's). The input is verified against its
// CRC32C footer before any entry is decoded, and the entry count from
// the header is validated against the bytes actually present before
// any allocation, so a truncated or corrupt file can never demand
// memory it does not carry.
func unmarshal(data []byte) (order int, envs []geom.Envelope, err error) {
	if len(data) < persistHeaderSize {
		return 0, nil, fmt.Errorf("index: %d bytes is shorter than the header", len(data))
	}
	magic := binary.LittleEndian.Uint32(data[0:4])
	if magic != persistMagic {
		return 0, nil, fmt.Errorf("index: bad magic %#x", magic)
	}
	version := binary.LittleEndian.Uint16(data[4:6])
	order = int(binary.LittleEndian.Uint16(data[6:8]))
	count := binary.LittleEndian.Uint32(data[8:12])

	if version != persistVersion {
		return 0, nil, fmt.Errorf("index: unsupported version %d", version)
	}
	body := data[persistHeaderSize:]
	if len(body) < persistFooterSize {
		return 0, nil, fmt.Errorf("index: v2 file is missing its checksum footer")
	}
	payload := data[:len(data)-persistFooterSize]
	want := binary.LittleEndian.Uint32(data[len(data)-persistFooterSize:])
	if got := wal.Checksum(payload); got != want {
		return 0, nil, fmt.Errorf("index: checksum mismatch (file %#x, computed %#x): persisted index is corrupt", want, got)
	}
	body = body[:len(body)-persistFooterSize]

	// The count header is untrusted: it must match the remaining input
	// length exactly (fixed-width entries) before the entry table is
	// allocated.
	if int64(count)*persistEntrySize != int64(len(body)) {
		return 0, nil, fmt.Errorf("index: header claims %d entries (%d bytes), file carries %d bytes",
			count, int64(count)*persistEntrySize, len(body))
	}

	envs = make([]geom.Envelope, count)
	for i := range envs {
		e := body[i*persistEntrySize:]
		if id := binary.LittleEndian.Uint32(e[0:4]); id != uint32(i) {
			return 0, nil, fmt.Errorf("index: entry %d names item %d", i, id)
		}
		minX := math.Float64frombits(binary.LittleEndian.Uint64(e[4:12]))
		minY := math.Float64frombits(binary.LittleEndian.Uint64(e[12:20]))
		maxX := math.Float64frombits(binary.LittleEndian.Uint64(e[20:28]))
		maxY := math.Float64frombits(binary.LittleEndian.Uint64(e[28:36]))
		envs[i] = geom.Envelope{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
	}
	return order, envs, nil
}

// LoadFile re-packs the items of a file SaveFile wrote, as Pack packs
// them, once it has checked that the file holds one item per row and
// that item i's envelope is rows[i]'s, and lays the rows out by the
// result as Lay does, with no postings: a persisted index fits only the
// rows it was saved from, in the order they had then.
func LoadFile[V any](path string, rows []engine.Pair[stobject.STObject, V]) (*Laid[V], error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	order, envs, err := unmarshal(data)
	if err != nil {
		return nil, err
	}
	if len(envs) != len(rows) {
		return nil, fmt.Errorf("index: file holds %d entries, data has %d", len(envs), len(rows))
	}
	for i, e := range envs {
		if want := rows[i].Key.Envelope(); !sameEnvelope(e, want) {
			return nil, fmt.Errorf("index: entry %d at %v does not fit the data's item at %v", i, e, want)
		}
	}
	tree, perm := Pack(order, len(envs), func(i int) geom.Envelope { return envs[i] })
	return layOut(tree, perm, rows, nil), nil
}
