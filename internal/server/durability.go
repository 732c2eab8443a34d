package server

// Durability: a write-ahead log plus periodic checkpoints under one
// on-disk data directory, giving the query service crash recovery
// with exactly-once batch semantics.
//
// Every catalog mutation (register, drop) and every ingest batch is
// appended to the WAL and fsync'd BEFORE it becomes visible — the
// HTTP acknowledgement implies the record is on disk. A checkpoint
// rotates the log, snapshots each dataset (mutable ones as a
// checksummed row file, captured through a writer barrier so no
// WAL-logged batch is missed; immutable ones as their self-contained
// spec), writes an atomic checksummed manifest, and truncates the log
// segments the PREVIOUS checkpoint made redundant — the newest two
// checkpoints and
// the WAL suffix of the older stay on disk, so one rotted manifest
// degrades to recovering from the prior checkpoint. Boot recovery
// loads the newest valid manifest, restores the catalog at its
// recorded generations, and replays the WAL suffix: registers and
// drops re-execute, batches re-apply through the live dataset's
// generation-checked replay path (already-checkpointed generations
// skip, gaps error), so the recovered state is exactly the
// acknowledged pre-crash state.
//
// Layout of the data directory:
//
//	wal-%08d.log        WAL segments (internal/wal framing)
//	manifest-%08d.ckpt  checkpoint manifests (checksummed JSON)
//	ckpt-%08d-%03d.rows mutable dataset rows (checksummed JSON)
//
// Checkpoints before this layout also wrote ckpt-%08d-%03d.idx, an
// R-tree over the row envelopes, and named it in the manifest. Recovery
// ignores that key and the file (restoring packs the live trees from the
// rows), and pruning deletes such files with the rest of their
// checkpoint.

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stark"
	"stark/internal/wal"
)

// WAL record types.
const (
	walRegister byte = 1 // registerRecord: catalog registration
	walDrop     byte = 2 // dropRecord: catalog drop
	walBatch    byte = 3 // batchRecord: one applied ingest batch
)

// registerRecord logs one catalog registration. Spec is
// self-contained: inline payloads are embedded before logging, so
// replay rebuilds the dataset without any other source.
type registerRecord struct {
	Gen  int64       `json:"gen"`
	Spec DatasetSpec `json:"spec"`
}

// dropRecord logs one catalog drop.
type dropRecord struct {
	Name string `json:"name"`
}

// batchRecord logs one applied ingest batch: the dataset, the
// registration generation of the entry it applied to (so batches of
// a later re-registration are never replayed into an earlier one),
// the live generation the batch published, and the operations in
// wire form.
type batchRecord struct {
	Dataset  string         `json:"dataset"`
	EntryGen int64          `json:"entryGen"`
	Gen      uint64         `json:"gen"`
	Ops      []mutationLine `json:"ops"`
}

// manifest is one checkpoint: the WAL segment replay resumes from,
// the catalog registration counter, and the datasets in registration
// order.
type manifest struct {
	WALSeq     int               `json:"walSeq"`
	CatalogGen int64             `json:"catalogGen"`
	Datasets   []manifestDataset `json:"datasets"`
}

// manifestDataset is one dataset in a checkpoint. Immutable datasets
// carry only their (self-contained) spec; mutable ones add the live
// generation and the segment file names.
type manifestDataset struct {
	Gen     int64       `json:"gen"`
	Spec    DatasetSpec `json:"spec"`
	LiveGen uint64      `json:"liveGen,omitempty"`
	Count   int         `json:"count,omitempty"`
	Rows    string      `json:"rows,omitempty"`
}

// RecoveryInfo summarises what boot recovery did.
type RecoveryInfo struct {
	// Checkpoint is the manifest sequence recovery loaded; 0 = none.
	Checkpoint int `json:"checkpoint"`
	// Datasets counts datasets restored from the checkpoint.
	Datasets int `json:"datasets"`
	// Registers/Drops/Batches count WAL suffix records re-executed.
	Registers int `json:"replayedRegisters"`
	Drops     int `json:"replayedDrops"`
	Batches   int `json:"replayedBatches"`
	// SkippedBatches counts suffix batches the checkpoint already
	// covered (idempotent replay) or whose entry was re-registered or
	// dropped later in the log.
	SkippedBatches int `json:"skippedBatches"`
	// DurationMs is wall time spent recovering.
	DurationMs int64 `json:"durationMs"`
}

// Durability is the WAL + checkpoint manager of one Server.
type Durability struct {
	s   *Server
	dir string
	log *wal.Log

	// recovering suppresses WAL logging while boot replay re-executes
	// catalog mutations through the normal code paths.
	recovering atomic.Bool

	// ckptMu serialises Checkpoint against Close.
	ckptMu sync.Mutex
	// ckptSeq is the newest manifest sequence written or recovered;
	// ckptWALSeq is the WAL segment that manifest resumes replay from
	// (0 = no checkpoint yet). The WAL suffix from ckptWALSeq on is
	// what the NEXT checkpoint may truncate: retention always covers
	// one full previous checkpoint, so a rotted newest manifest
	// degrades to recovering from the prior one instead of failing.
	ckptSeq    int
	ckptWALSeq int
	closed     bool

	checkpoints  atomic.Int64
	lastCkptUnix atomic.Int64

	recovered RecoveryInfo

	stopTicker chan struct{}
	tickerDone chan struct{}
}

func manifestPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("manifest-%08d.ckpt", seq))
}

// EnableDurability turns the service durable: recovers catalog and
// datasets from dir (newest valid checkpoint + WAL suffix replay),
// then write-ahead-logs every subsequent catalog mutation and ingest
// batch, checkpointing every interval (0 disables the ticker;
// Checkpoint can still be called explicitly). Must be called before
// any registration, and at most once.
func (s *Server) EnableDurability(dir string, interval time.Duration) (*RecoveryInfo, error) {
	if s.dur != nil {
		return nil, errors.New("durability already enabled")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating data dir: %w", err)
	}
	d := &Durability{s: s, dir: dir}
	// The catalog must know the manager before recovery: replayed
	// registrations attach their commit hooks through it.
	s.catalog.setDurability(d)
	d.recovering.Store(true)
	start := time.Now()
	if err := d.recover(); err != nil {
		s.catalog.setDurability(nil)
		return nil, err
	}
	d.recovered.DurationMs = time.Since(start).Milliseconds()

	log, err := wal.Open(dir)
	if err != nil {
		s.catalog.setDurability(nil)
		return nil, fmt.Errorf("opening WAL: %w", err)
	}
	fsyncH := s.tel.Registry.Histogram("stark_wal_fsync_duration_seconds",
		"Duration of WAL fsync calls.",
		[]float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1})
	log.SyncObserver = fsyncH.ObserveDuration
	d.log = log
	d.recovering.Store(false)
	s.dur = d

	s.tel.Registry.CounterFunc("stark_wal_appends_total", "Records appended to the WAL.",
		func() int64 { return d.log.Stats().Appends })
	s.tel.Registry.CounterFunc("stark_wal_bytes_total", "Bytes written to the WAL, including framing.",
		func() int64 { return d.log.Stats().Bytes })
	s.tel.Registry.CounterFunc("stark_wal_fsyncs_total", "fsync calls issued by WAL appends.",
		func() int64 { return d.log.Stats().Syncs })
	s.tel.Registry.CounterFunc("stark_checkpoints_total", "Checkpoints completed.",
		d.checkpoints.Load)

	if interval > 0 {
		d.stopTicker = make(chan struct{})
		d.tickerDone = make(chan struct{})
		go d.tick(interval)
	}
	info := d.recovered
	return &info, nil
}

// CloseDurability takes a final checkpoint and closes the WAL — the
// graceful-shutdown path. The service must no longer be serving
// writes. A no-op when durability is not enabled.
func (s *Server) CloseDurability() error {
	d := s.dur
	if d == nil {
		return nil
	}
	if d.stopTicker != nil {
		close(d.stopTicker)
		<-d.tickerDone
	}
	ckptErr := d.Checkpoint()
	d.ckptMu.Lock()
	d.closed = true
	d.ckptMu.Unlock()
	if err := d.log.Close(); err != nil && ckptErr == nil {
		ckptErr = err
	}
	return ckptErr
}

// Checkpoint snapshots the catalog and truncates the WAL — callable
// any time while the service runs.
func (s *Server) Checkpoint() error {
	if s.dur == nil {
		return errors.New("durability not enabled")
	}
	return s.dur.Checkpoint()
}

// HasDataset reports whether name is registered — cmd/starkd uses it
// to skip preloading datasets recovery already restored.
func (s *Server) HasDataset(name string) bool {
	_, ok := s.catalog.Get(name)
	return ok
}

// DatasetInfo returns the catalog's view of one dataset, as the HTTP
// list endpoint would render it. bench/e2e's recovery check uses it to
// compare the recovered state with what it ingested.
func (s *Server) DatasetInfo(name string) (DatasetInfo, bool) {
	e, ok := s.catalog.Get(name)
	if !ok {
		return DatasetInfo{}, false
	}
	return e.info(), true
}

func (d *Durability) tick(interval time.Duration) {
	defer close(d.tickerDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := d.Checkpoint(); err != nil {
				slog.Error("checkpoint failed", "err", err)
			}
		case <-d.stopTicker:
			return
		}
	}
}

// ---- logging (called under the catalog / live-dataset writer locks) ----

func (d *Durability) append(typ byte, v interface{}) error {
	if d.recovering.Load() {
		return nil
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return d.log.Append(wal.Record{Type: typ, Payload: payload})
}

func (d *Durability) logRegister(gen int64, spec DatasetSpec) error {
	return d.append(walRegister, registerRecord{Gen: gen, Spec: spec})
}

func (d *Durability) logDrop(name string) error {
	return d.append(walDrop, dropRecord{Name: name})
}

func (d *Durability) logBatch(dataset string, entryGen int64, gen uint64, ops []stark.LiveOp[eventValue]) error {
	if d.recovering.Load() {
		return nil
	}
	lines := make([]mutationLine, len(ops))
	for i, op := range ops {
		lines[i] = opLine(op)
	}
	return d.append(walBatch, batchRecord{Dataset: dataset, EntryGen: entryGen, Gen: gen, Ops: lines})
}

// ---- checkpointing ----

// Checkpoint rotates the WAL, snapshots every dataset, writes an
// atomic checksummed manifest, and removes the WAL segments and
// checkpoint files the PREVIOUS checkpoint made redundant — the
// newest two checkpoints (manifest, segment files, and the WAL suffix
// from the older one's replay point) are always retained, so recovery
// survives a single rotted manifest by falling back one checkpoint
// and replaying the longer suffix. Writers keep running throughout:
// the per-dataset snapshot is a writer barrier (EachRecord), so every
// batch logged to a pre-rotation segment is in the snapshot, and
// batches that land mid-checkpoint are in the rotated suffix — replay
// is idempotent, so landing in both is harmless.
func (d *Durability) Checkpoint() error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if d.closed {
		return errors.New("durability closed")
	}
	walSeq, err := d.log.Rotate()
	if err != nil {
		return fmt.Errorf("rotating WAL: %w", err)
	}
	entries, catGen := d.s.catalog.snapshot()
	seq := d.ckptSeq + 1
	m := manifest{WALSeq: walSeq, CatalogGen: catGen}
	for i, e := range entries {
		md := manifestDataset{Gen: e.gen, Spec: e.spec}
		if e.mds != nil {
			// Sized up front; a batch landing before the barrier only grows them.
			recs := make([]EventSpec, 0, e.mds.Count())
			liveGen := e.mds.EachRecord(func(r stark.LiveRecord[eventValue]) bool {
				recs = append(recs, EventSpec{ID: int(r.ID), Category: r.Value.Category, Time: eventTime(r.Key), WKT: keyWKT(r.Key)})
				return true
			})
			rows, err := json.Marshal(recs)
			if err != nil {
				return fmt.Errorf("encoding rows of %q: %w", e.spec.Name, err)
			}
			// Segment files are named by checkpoint sequence and dataset
			// ordinal — never by the (untrusted) dataset name.
			md.Rows = fmt.Sprintf("ckpt-%08d-%03d.rows", seq, i)
			if err := wal.WriteChecksummed(filepath.Join(d.dir, md.Rows), rows); err != nil {
				return fmt.Errorf("writing %s: %w", md.Rows, err)
			}
			md.LiveGen = liveGen
			md.Count = len(recs)
		}
		m.Datasets = append(m.Datasets, md)
	}
	buf, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("encoding manifest: %w", err)
	}
	// The manifest is the commit point: until this atomic write lands,
	// recovery uses the previous checkpoint and the full WAL.
	if err := wal.WriteChecksummed(manifestPath(d.dir, seq), buf); err != nil {
		return fmt.Errorf("writing manifest: %w", err)
	}
	prevSeq, prevWALSeq := d.ckptSeq, d.ckptWALSeq
	d.ckptSeq, d.ckptWALSeq = seq, walSeq
	// Truncate only what the PREVIOUS checkpoint covered: WAL segments
	// below its replay point. With no previous checkpoint the whole log
	// stays — the fallback recovery point is then "empty state + full
	// replay".
	if prevSeq > 0 {
		if err := d.log.RemoveBelow(prevWALSeq); err != nil {
			return fmt.Errorf("truncating WAL: %w", err)
		}
	}
	d.prune(seq, prevSeq)
	d.checkpoints.Add(1)
	d.lastCkptUnix.Store(time.Now().Unix())
	return nil
}

// prune removes manifests and checkpoint segment files of checkpoints
// other than the newest (keep) and the previous complete one
// (alsoKeep, 0 = none) — the fallback loadNewestManifest degrades to
// when keep's manifest rots. Best effort — stragglers are re-pruned
// by the next checkpoint.
func (d *Durability) prune(keep, alsoKeep int) {
	names, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	retained := func(seq int) bool { return seq == keep || (alsoKeep > 0 && seq == alsoKeep) }
	for _, de := range names {
		n := de.Name()
		var seq int
		var stale bool
		switch {
		case strings.HasPrefix(n, "manifest-") && strings.HasSuffix(n, ".ckpt"):
			if c, _ := fmt.Sscanf(n, "manifest-%d.ckpt", &seq); c == 1 {
				stale = !retained(seq)
			}
		case strings.HasPrefix(n, "ckpt-"):
			if c, _ := fmt.Sscanf(n, "ckpt-%d-", &seq); c == 1 {
				stale = !retained(seq)
			}
		}
		if stale {
			_ = os.Remove(filepath.Join(d.dir, n))
		}
	}
}

// ---- recovery ----

// recover restores the catalog from the newest valid checkpoint (if
// any) and replays the WAL suffix through the normal catalog and
// live-dataset paths.
func (d *Durability) recover() error {
	m, seq, err := d.loadNewestManifest()
	if err != nil {
		return err
	}
	fromSeq := 0
	if m != nil {
		d.ckptSeq, d.ckptWALSeq = seq, m.WALSeq
		d.recovered.Checkpoint = seq
		if err := d.restoreCheckpoint(m); err != nil {
			return fmt.Errorf("restoring checkpoint %d: %w", seq, err)
		}
		fromSeq = m.WALSeq
	}
	if err := wal.Replay(d.dir, fromSeq, d.applyRecord); err != nil {
		return fmt.Errorf("replaying WAL: %w", err)
	}
	return nil
}

// loadNewestManifest returns the newest manifest that reads back
// valid, skipping (with a log line) any that rotted on disk.
func (d *Durability) loadNewestManifest() (*manifest, int, error) {
	des, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, 0, err
	}
	var seqs []int
	for _, de := range des {
		var seq int
		if n, _ := fmt.Sscanf(de.Name(), "manifest-%d.ckpt", &seq); n == 1 {
			seqs = append(seqs, seq)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(seqs)))
	for _, seq := range seqs {
		buf, err := wal.ReadChecksummed(manifestPath(d.dir, seq))
		if err != nil {
			slog.Warn("skipping unreadable checkpoint manifest", "seq", seq, "err", err)
			continue
		}
		var m manifest
		if err := json.Unmarshal(buf, &m); err != nil {
			slog.Warn("skipping undecodable checkpoint manifest", "seq", seq, "err", err)
			continue
		}
		return &m, seq, nil
	}
	return nil, 0, nil
}

// restoreCheckpoint rebuilds the catalog the manifest describes:
// immutable datasets re-stage from their self-contained specs,
// mutable ones bulk-load their checkpointed rows (validated against
// the checksummed container and the manifest's row count) at their
// recorded live generation.
func (d *Durability) restoreCheckpoint(m *manifest) error {
	for _, md := range m.Datasets {
		if md.Rows == "" {
			// Immutable (or never-snapshotted) dataset: deterministic
			// re-stage from the spec.
			if err := d.s.catalog.registerReplayed(d.s.ctx, md.Spec, md.Gen); err != nil {
				return fmt.Errorf("re-staging %q: %w", md.Spec.Name, err)
			}
			d.recovered.Datasets++
			continue
		}
		rows, err := wal.ReadChecksummed(filepath.Join(d.dir, md.Rows))
		if err != nil {
			return fmt.Errorf("reading %s: %w", md.Rows, err)
		}
		var recs []EventSpec
		if err := json.Unmarshal(rows, &recs); err != nil {
			return fmt.Errorf("decoding %s: %w", md.Rows, err)
		}
		if len(recs) != md.Count {
			return fmt.Errorf("%q: rows (%d) and manifest (%d) disagree", md.Spec.Name, len(recs), md.Count)
		}
		if _, err := d.s.catalog.registerAt(d.s.ctx, md.Spec, recs, md.Gen, md.LiveGen); err != nil {
			return fmt.Errorf("restoring %q: %w", md.Spec.Name, err)
		}
		d.recovered.Datasets++
	}
	d.s.catalog.setGen(m.CatalogGen)
	return nil
}

// applyRecord re-executes one WAL suffix record.
func (d *Durability) applyRecord(_ int, rec wal.Record) error {
	switch rec.Type {
	case walRegister:
		var r registerRecord
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			return fmt.Errorf("decoding register record: %w", err)
		}
		if err := d.s.catalog.registerReplayed(d.s.ctx, r.Spec, r.Gen); err != nil {
			return fmt.Errorf("replaying registration of %q: %w", r.Spec.Name, err)
		}
		d.recovered.Registers++
	case walDrop:
		var r dropRecord
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			return fmt.Errorf("decoding drop record: %w", err)
		}
		if _, err := d.s.catalog.Drop(r.Name); err != nil {
			return err
		}
		d.recovered.Drops++
	case walBatch:
		var r batchRecord
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			return fmt.Errorf("decoding batch record: %w", err)
		}
		entry, ok := d.s.catalog.Get(r.Dataset)
		if !ok || entry.mds == nil || entry.gen != r.EntryGen {
			// The entry this batch applied to was dropped or replaced
			// later in the log — the batch is history, not state.
			d.recovered.SkippedBatches++
			return nil
		}
		ops := make([]stark.LiveOp[eventValue], len(r.Ops))
		for i, line := range r.Ops {
			op, err := line.toOp()
			if err != nil {
				return fmt.Errorf("batch for %q op %d: %w", r.Dataset, i, err)
			}
			ops[i] = op
		}
		applied, err := entry.mds.ReplayBatch(r.Gen, ops)
		if err != nil {
			return fmt.Errorf("replaying batch generation %d into %q: %w", r.Gen, r.Dataset, err)
		}
		if applied {
			d.recovered.Batches++
		} else {
			d.recovered.SkippedBatches++
		}
	default:
		return fmt.Errorf("unknown WAL record type %d", rec.Type)
	}
	return nil
}

// status renders the durability block of GET /api/service.
func (d *Durability) status() map[string]interface{} {
	st := d.log.Stats()
	out := map[string]interface{}{
		"enabled":     true,
		"dir":         d.dir,
		"walSeq":      st.Seq,
		"walAppends":  st.Appends,
		"walBytes":    st.Bytes,
		"walSyncs":    st.Syncs,
		"checkpoints": d.checkpoints.Load(),
		"recovered":   d.recovered,
	}
	if ts := d.lastCkptUnix.Load(); ts > 0 {
		out["lastCheckpoint"] = time.Unix(ts, 0).UTC().Format(time.RFC3339)
	}
	return out
}
