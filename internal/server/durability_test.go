package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/index"
	"stark/internal/wal"
)

// durableService builds an empty durable service over dir with no
// checkpoint ticker (tests checkpoint explicitly).
func durableService(t *testing.T, dir string) (*Server, *RecoveryInfo) {
	t.Helper()
	ctx := engine.NewContext(2)
	s := NewService(ctx, Options{})
	info, err := s.EnableDurability(dir, 0)
	if err != nil {
		t.Fatalf("EnableDurability: %v", err)
	}
	return s, info
}

// crash simulates a hard failure: the WAL handle closes without a
// final checkpoint, and the server is abandoned.
func crash(t *testing.T, s *Server) {
	t.Helper()
	if s.dur.stopTicker != nil {
		close(s.dur.stopTicker)
		<-s.dur.tickerDone
	}
	if err := s.dur.log.Close(); err != nil {
		t.Fatal(err)
	}
}

// listInfo fetches GET /api/datasets as DatasetInfo records.
func listInfo(t *testing.T, s *Server) map[string]DatasetInfo {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/datasets", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /api/datasets: %d %s", rec.Code, rec.Body)
	}
	var doc struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]DatasetInfo, len(doc.Datasets))
	for _, in := range doc.Datasets {
		out[in.Name] = in
	}
	return out
}

func insertLine(id int) string {
	return fmt.Sprintf(`{"op":"insert","id":%d,"category":"live","time":%d,"wkt":"POINT (%d %d)"}`,
		id, id, id%100, (id*3)%100)
}

func TestDurableRoundTripAfterCrash(t *testing.T) {
	dir := t.TempDir()
	s, info := durableService(t, dir)
	if info.Checkpoint != 0 || info.Datasets != 0 {
		t.Fatalf("fresh dir recovered %+v", info)
	}

	// One immutable dataset from a generator spec, one mutable with
	// seed events, both through the public registration path.
	if err := s.Register(DatasetSpec{Name: "ref", N: 300, Seed: 7, Dist: "uniform", Index: "live:8", Partitioner: "grid:4"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(DatasetSpec{
		Name: "fleet", Mutable: true, Partitioner: "grid:4",
		Width: 100, Height: 100, Events: seedEvents(0, 20),
	}); err != nil {
		t.Fatal(err)
	}

	// Three acknowledged ingest batches: insert, upsert, delete.
	if rec := ingestNDJSON(t, s, "fleet", insertLine(100)+"\n"+insertLine(101)); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	if rec := ingestNDJSON(t, s, "fleet", `{"op":"upsert","id":100,"category":"moved","time":9,"wkt":"POINT (1 2)"}`); rec.Code != http.StatusOK {
		t.Fatalf("upsert: %d %s", rec.Code, rec.Body)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/api/v1/datasets/fleet/records/5", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("record delete: %d %s", rec.Code, rec.Body)
	}
	before := listInfo(t, s)
	crash(t, s)

	s2, info2 := durableService(t, dir)
	if info2.Registers != 2 || info2.Batches != 3 {
		t.Fatalf("recovery replayed %+v", info2)
	}
	if !s2.HasDataset("fleet") || s2.HasDataset("nope") {
		t.Fatal("HasDataset after recovery")
	}
	if di, ok := s2.DatasetInfo("fleet"); !ok || di.LiveGeneration != 4 {
		t.Fatalf("DatasetInfo after recovery: %+v ok=%v", di, ok)
	}
	if _, ok := s2.DatasetInfo("nope"); ok {
		t.Fatal("DatasetInfo invented a dataset")
	}
	after := listInfo(t, s2)
	if len(after) != len(before) {
		t.Fatalf("datasets: before %v, after %v", before, after)
	}
	for name, b := range before {
		a := after[name]
		if a.Events != b.Events || a.Mutable != b.Mutable || a.LiveGeneration != b.LiveGeneration ||
			a.Index != b.Index || a.Partitioner != b.Partitioner || a.Generation != b.Generation {
			t.Fatalf("%s: before %+v, after %+v", name, b, a)
		}
	}
	if after["fleet"].LiveGeneration != 4 || after["fleet"].Events != 21 {
		t.Fatalf("fleet recovered as %+v", after["fleet"])
	}

	// The recovered dataset keeps taking (logged) writes.
	if rec := ingestNDJSON(t, s2, "fleet", insertLine(200)); rec.Code != http.StatusOK {
		t.Fatalf("post-recovery ingest: %d %s", rec.Code, rec.Body)
	}
	crash(t, s2)
	s3, _ := durableService(t, dir)
	if got := listInfo(t, s3)["fleet"]; got.LiveGeneration != 5 || got.Events != 22 {
		t.Fatalf("second recovery: %+v", got)
	}
	crash(t, s3)
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableService(t, dir)
	if err := s.Register(DatasetSpec{Name: "fleet", Mutable: true, Partitioner: "grid:2", Width: 100, Height: 100}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if rec := ingestNDJSON(t, s, "fleet", insertLine(i)); rec.Code != http.StatusOK {
			t.Fatalf("ingest %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Two more batches land after the checkpoint.
	for i := 5; i < 7; i++ {
		if rec := ingestNDJSON(t, s, "fleet", insertLine(i)); rec.Code != http.StatusOK {
			t.Fatalf("ingest %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	crash(t, s)

	s2, info := durableService(t, dir)
	if info.Checkpoint == 0 || info.Datasets != 1 {
		t.Fatalf("recovery ignored the checkpoint: %+v", info)
	}
	if info.Batches != 2 {
		t.Fatalf("replayed %d batches, want 2 (the post-checkpoint suffix)", info.Batches)
	}
	got := listInfo(t, s2)["fleet"]
	if got.LiveGeneration != 7 || got.Events != 7 {
		t.Fatalf("recovered %+v", got)
	}

	// Graceful shutdown: the final checkpoint makes the next recovery
	// pure restore — zero replay.
	if err := s2.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	s3, info3 := durableService(t, dir)
	if info3.Batches != 0 || info3.Registers != 0 || info3.Datasets != 1 {
		t.Fatalf("post-shutdown recovery still replayed: %+v", info3)
	}
	if got := listInfo(t, s3)["fleet"]; got.LiveGeneration != 7 || got.Events != 7 {
		t.Fatalf("post-shutdown recovery: %+v", got)
	}
	crash(t, s3)
}

func TestDropAndReregisterSurviveRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableService(t, dir)
	if err := s.Register(DatasetSpec{Name: "a", Mutable: true, Width: 10, Height: 10}); err != nil {
		t.Fatal(err)
	}
	if rec := ingestNDJSON(t, s, "a", insertLine(1)+"\n"+insertLine(2)); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/api/datasets/a", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("drop: %d %s", rec.Code, rec.Body)
	}
	// Re-register the same name; only the new instance's batch must
	// survive recovery.
	if err := s.Register(DatasetSpec{Name: "a", Mutable: true, Width: 10, Height: 10}); err != nil {
		t.Fatal(err)
	}
	if rec := ingestNDJSON(t, s, "a", insertLine(9)); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	crash(t, s)

	s2, info := durableService(t, dir)
	if info.Drops != 1 || info.Registers != 2 {
		t.Fatalf("recovery: %+v", info)
	}
	// The dropped instance's 2-record batch replays into the first
	// instance and dies with it; only the re-registered instance's
	// single insert survives.
	got := listInfo(t, s2)["a"]
	if got.Events != 1 || got.LiveGeneration != 1 {
		t.Fatalf("re-registered dataset recovered as %+v", got)
	}

	// A stale suffix batch — one tagged with the dropped instance's
	// registration generation — must be skipped, not applied to the
	// replacement. (This shape only occurs when checkpoint truncation
	// leaves an old segment behind, so it is injected directly.)
	entry, ok := s2.catalog.Get("a")
	if !ok {
		t.Fatal("dataset a missing")
	}
	staleID := int64(77)
	stale, err := json.Marshal(batchRecord{
		Dataset:  "a",
		EntryGen: entry.gen - 1,
		Gen:      got.LiveGeneration + 1,
		Ops:      []mutationLine{{Op: "insert", ID: &staleID, WKT: "POINT (1 1)"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := s2.dur.recovered.SkippedBatches
	if err := s2.dur.applyRecord(0, wal.Record{Type: walBatch, Payload: stale}); err != nil {
		t.Fatalf("stale batch replay errored: %v", err)
	}
	if s2.dur.recovered.SkippedBatches != before+1 {
		t.Fatal("stale-generation batch was not skipped")
	}
	if got := listInfo(t, s2)["a"]; got.Events != 1 || got.LiveGeneration != 1 {
		t.Fatalf("stale batch mutated the replacement: %+v", got)
	}
	crash(t, s2)
}

// TestRecoveryTruncationBattery is the end-to-end torn-write sweep:
// the WAL is cut at EVERY byte boundary, and recovery must come back
// with exactly the state of the longest complete record prefix —
// never a panic, never a half-applied batch, never a batch past the
// damage. The workload is built so the expected state is a function
// of the prefix length: one register record, then one insert per
// batch, so after r complete records the dataset exists iff r >= 1,
// with liveGen == count == r-1.
func TestRecoveryTruncationBattery(t *testing.T) {
	master := t.TempDir()
	s, _ := durableService(t, master)
	if err := s.Register(DatasetSpec{Name: "fleet", Mutable: true, Partitioner: "grid:2", Width: 100, Height: 100}); err != nil {
		t.Fatal(err)
	}
	const batches = 6
	for i := 0; i < batches; i++ {
		if rec := ingestNDJSON(t, s, "fleet", insertLine(i)); rec.Code != http.StatusOK {
			t.Fatalf("ingest %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	crash(t, s)

	segs, err := filepath.Glob(filepath.Join(master, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v err %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	segName := filepath.Base(segs[0])

	for cut := 0; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// The number of complete records in the prefix, per the WAL's
		// own reader — the ground truth recovery must match.
		complete := 0
		if err := wal.Replay(dir, 0, func(int, wal.Record) error {
			complete++
			return nil
		}); err != nil {
			t.Fatalf("cut %d: Replay: %v", cut, err)
		}
		s2, info := durableService(t, dir)
		got := listInfo(t, s2)
		switch {
		case complete == 0:
			if len(got) != 0 {
				t.Fatalf("cut %d: no complete records but recovered %v", cut, got)
			}
		default:
			want := uint64(complete - 1)
			fl, ok := got["fleet"]
			if !ok {
				t.Fatalf("cut %d: register record complete but dataset missing", cut)
			}
			if fl.LiveGeneration != want || fl.Events != int64(want) {
				t.Fatalf("cut %d (%d complete records): gen=%d events=%d, want %d",
					cut, complete, fl.LiveGeneration, fl.Events, want)
			}
		}
		if info.Batches != max(0, complete-1) {
			t.Fatalf("cut %d: replayed %d batches, want %d", cut, info.Batches, complete-1)
		}
		crash(t, s2)
	}
}

// TestRecoveryBitFlipBattery flips one random bit at every byte
// offset of the WAL: recovery must never panic and must recover a
// clean prefix of the acknowledged history (the CRC turns any
// corruption into a clean stop).
func TestRecoveryBitFlipBattery(t *testing.T) {
	master := t.TempDir()
	s, _ := durableService(t, master)
	if err := s.Register(DatasetSpec{Name: "fleet", Mutable: true, Width: 100, Height: 100}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if rec := ingestNDJSON(t, s, "fleet", insertLine(i)); rec.Code != http.StatusOK {
			t.Fatalf("ingest %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	crash(t, s)

	segs, _ := filepath.Glob(filepath.Join(master, "wal-*.log"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	segName := filepath.Base(segs[0])
	rng := rand.New(rand.NewSource(99))

	// Sample offsets across the whole file (every offset would make
	// the test minutes long: each recovery re-stages the catalog).
	for off := 0; off < len(data); off += 1 + rng.Intn(16) {
		mutated := append([]byte(nil), data...)
		mutated[off] ^= byte(1 << rng.Intn(8))
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		complete := 0
		if err := wal.Replay(dir, 0, func(int, wal.Record) error {
			complete++
			return nil
		}); err != nil {
			t.Fatalf("offset %d: Replay: %v", off, err)
		}
		s2, info := durableService(t, dir)
		got := listInfo(t, s2)
		if complete == 0 && len(got) != 0 {
			t.Fatalf("offset %d: recovered %v from zero valid records", off, got)
		}
		if complete > 0 {
			fl := got["fleet"]
			if fl.LiveGeneration != uint64(complete-1) {
				t.Fatalf("offset %d: gen %d from %d valid records", off, fl.LiveGeneration, complete)
			}
		}
		if info.Batches > 4 {
			t.Fatalf("offset %d: replayed %d batches, wrote only 4", off, info.Batches)
		}
		crash(t, s2)
	}
}

func TestCorruptManifestFallsBackWithoutPanic(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableService(t, dir)
	if err := s.Register(DatasetSpec{Name: "fleet", Mutable: true, Width: 10, Height: 10}); err != nil {
		t.Fatal(err)
	}
	if rec := ingestNDJSON(t, s, "fleet", insertLine(1)); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	manifests, _ := filepath.Glob(filepath.Join(dir, "manifest-*.ckpt"))
	if len(manifests) == 0 {
		t.Fatal("no manifest written")
	}
	raw, err := os.ReadFile(manifests[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(manifests[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// The corrupted manifest must be skipped, not trusted; with no
	// older manifest recovery starts from the (truncated) WAL and must
	// still come up serving.
	s2, info := durableService(t, dir)
	if info.Checkpoint != 0 {
		t.Fatalf("corrupt manifest was loaded: %+v", info)
	}
	crash(t, s2)
}

// TestFallbackToPreviousCheckpoint: when the newest manifest rots,
// recovery must degrade to the previous checkpoint plus the longer
// retained WAL suffix — losing nothing — rather than failing or
// coming up empty.
func TestFallbackToPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableService(t, dir)
	if err := s.Register(DatasetSpec{Name: "fleet", Mutable: true, Partitioner: "grid:2", Width: 100, Height: 100}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if rec := ingestNDJSON(t, s, "fleet", insertLine(i)); rec.Code != http.StatusOK {
			t.Fatalf("ingest %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	if err := s.Checkpoint(); err != nil { // checkpoint 1: liveGen 2
		t.Fatal(err)
	}
	if rec := ingestNDJSON(t, s, "fleet", insertLine(2)); rec.Code != http.StatusOK {
		t.Fatalf("ingest 2: %d %s", rec.Code, rec.Body)
	}
	if err := s.Checkpoint(); err != nil { // checkpoint 2: liveGen 3
		t.Fatal(err)
	}
	if rec := ingestNDJSON(t, s, "fleet", insertLine(3)); rec.Code != http.StatusOK {
		t.Fatalf("ingest 3: %d %s", rec.Code, rec.Body)
	}
	crash(t, s)

	// Rot the newest manifest.
	raw, err := os.ReadFile(manifestPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(manifestPath(dir, 2), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, info := durableService(t, dir)
	if info.Checkpoint != 1 {
		t.Fatalf("recovered from checkpoint %d, want fallback to 1 (%+v)", info.Checkpoint, info)
	}
	// The WAL suffix of checkpoint 1 was retained, so batches 3 and 4
	// both replay — the full acknowledged history survives.
	if info.Batches != 2 {
		t.Fatalf("replayed %d batches, want 2: %+v", info.Batches, info)
	}
	got := listInfo(t, s2)["fleet"]
	if got.LiveGeneration != 4 || got.Events != 4 {
		t.Fatalf("recovered %+v, want liveGen=4 events=4", got)
	}
	crash(t, s2)
}

// TestPruneRetainsTwoCheckpoints: after N checkpoints exactly the
// newest two manifests (and their segment files) remain, and the WAL
// keeps the suffix the OLDER retained checkpoint replays from.
func TestPruneRetainsTwoCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableService(t, dir)
	if err := s.Register(DatasetSpec{Name: "fleet", Mutable: true, Width: 10, Height: 10}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if rec := ingestNDJSON(t, s, "fleet", insertLine(i)); rec.Code != http.StatusOK {
			t.Fatalf("ingest %d: %d %s", i, rec.Code, rec.Body)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	manifests, err := filepath.Glob(filepath.Join(dir, "manifest-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(manifests) != 2 {
		t.Fatalf("manifests on disk: %v, want exactly the newest two", manifests)
	}
	for _, m := range manifests {
		if base := filepath.Base(m); base != "manifest-00000002.ckpt" && base != "manifest-00000003.ckpt" {
			t.Fatalf("unexpected retained manifest %s", base)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "ckpt-00000001-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Fatalf("segment files of pruned checkpoint 1 remain: %v", segs)
	}
	for _, seq := range []int{2, 3} {
		if rows, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("ckpt-%08d-*", seq))); len(rows) == 0 {
			t.Fatalf("retained checkpoint %d has no segment files", seq)
		}
	}
	crash(t, s)
}

// TestRecoveryReadsCheckpointsWithATreeFile: checkpoints used to write
// an R-tree over the row envelopes beside each rows file and name it in
// the manifest ("index"). A data directory in that layout recovers to
// the same replies; new checkpoints write no tree, and pruning removes
// the old one with the rest of its checkpoint.
func TestRecoveryReadsCheckpointsWithATreeFile(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableService(t, dir)
	if err := s.Register(DatasetSpec{Name: "fleet", Mutable: true, Partitioner: "grid:2", Width: 100, Height: 100}); err != nil {
		t.Fatal(err)
	}
	if rec := ingestNDJSON(t, s, "fleet", recoveryBatch); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if rec := ingestNDJSON(t, s, "fleet", recoveryLater); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	want := replies(t, s)
	crash(t, s)
	if trees := treeFiles(t, dir); len(trees) != 0 {
		t.Fatalf("a checkpoint wrote %v", trees)
	}
	addTreeFiles(t, dir, 1)

	s2, info := durableService(t, dir)
	if info.Checkpoint != 1 || info.Datasets != 1 || info.Batches != 1 {
		t.Fatalf("recovery: %+v, want checkpoint 1 and one replayed batch", info)
	}
	got := replies(t, s2)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("query %d after recovery:\n%s\nbefore the crash:\n%s", i, got[i], want[i])
		}
	}
	// The next checkpoint keeps checkpoint 1 as its fallback, tree file
	// and all; the one after prunes it.
	for seq, left := range []int{1, 0} {
		if err := s2.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if trees := treeFiles(t, dir); len(trees) != left {
			t.Fatalf("after checkpoint %d: tree files %v, want %d", seq+2, trees, left)
		}
	}
	crash(t, s2)
}

// treeFiles lists the checkpoint tree files in dir.
func treeFiles(t *testing.T, dir string) []string {
	t.Helper()
	trees, err := filepath.Glob(filepath.Join(dir, "ckpt-*.idx"))
	if err != nil {
		t.Fatal(err)
	}
	return trees
}

// addTreeFiles rewrites checkpoint seq in the layout checkpoints had
// while they wrote a tree: an R-tree over the envelopes of every rows
// file (index format v2) and its name under "index" in the manifest.
func addTreeFiles(t *testing.T, dir string, seq int) {
	t.Helper()
	raw, err := wal.ReadChecksummed(manifestPath(dir, seq))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for i, d := range m["datasets"].([]any) {
		md := d.(map[string]any)
		rowsFile, ok := md["rows"].(string)
		if !ok {
			continue
		}
		rows, err := wal.ReadChecksummed(filepath.Join(dir, rowsFile))
		if err != nil {
			t.Fatal(err)
		}
		var recs []EventSpec
		if err := json.Unmarshal(rows, &recs); err != nil {
			t.Fatal(err)
		}
		envs := make([]geom.Envelope, len(recs))
		for j, r := range recs {
			g, err := geom.ParseWKT(r.WKT)
			if err != nil {
				t.Fatal(err)
			}
			envs[j] = g.Envelope()
		}
		name := fmt.Sprintf("ckpt-%08d-%03d.idx", seq, i)
		if err := index.BuildFromEnvelopes(0, envs).SaveFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
		md["index"] = name
	}
	buf, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteChecksummed(manifestPath(dir, seq), buf); err != nil {
		t.Fatal(err)
	}
	if trees := treeFiles(t, dir); len(trees) == 0 {
		t.Fatal("no tree file written: bad test set-up")
	}
}

// TestCheckpointConcurrentIngestLosesNothing hammers checkpoints
// against concurrent acknowledged ingests, then crashes and recovers:
// every acknowledged batch must be in the recovered state. (This is
// the writer-barrier property: a batch logged to a pre-rotation WAL
// segment must land in the checkpoint snapshot, because truncation
// deletes its log record.)
func TestCheckpointConcurrentIngestLosesNothing(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableService(t, dir)
	if err := s.Register(DatasetSpec{Name: "fleet", Mutable: true, Partitioner: "grid:2", Width: 100, Height: 100}); err != nil {
		t.Fatal(err)
	}

	const workers = 4
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := w*perWorker + i
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodPost, "/api/v1/ingest?dataset=fleet", strings.NewReader(insertLine(id)))
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("worker %d ingest %d: %d %s", w, i, rec.Code, rec.Body)
					return
				}
			}
		}(w)
	}
	ckpts := make(chan struct{})
	go func() {
		defer close(ckpts)
		for i := 0; i < 8; i++ {
			if err := s.Checkpoint(); err != nil {
				errs <- fmt.Errorf("checkpoint %d: %v", i, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-ckpts
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	crash(t, s)

	s2, _ := durableService(t, dir)
	got := listInfo(t, s2)["fleet"]
	const total = workers * perWorker
	if got.Events != total || got.LiveGeneration != total {
		t.Fatalf("recovered events=%d liveGen=%d, acknowledged %d single-insert batches",
			got.Events, got.LiveGeneration, total)
	}
	crash(t, s2)
}

func TestServiceStatsReportDurability(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableService(t, dir)
	if err := s.Register(DatasetSpec{Name: "fleet", Mutable: true, Width: 10, Height: 10}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/service", nil))
	var doc struct {
		Durability struct {
			Enabled    bool   `json:"enabled"`
			Dir        string `json:"dir"`
			WALAppends int64  `json:"walAppends"`
		} `json:"durability"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Durability.Enabled || doc.Durability.Dir != dir || doc.Durability.WALAppends == 0 {
		t.Fatalf("durability status: %+v body %s", doc.Durability, rec.Body)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, m := range []string{"stark_wal_appends_total", "stark_wal_bytes_total", "stark_wal_fsync_duration_seconds", "stark_checkpoints_total"} {
		if !strings.Contains(body, m) {
			t.Fatalf("/metrics missing %s", m)
		}
	}
	crash(t, s)

	// Without durability the block reports disabled.
	s2 := NewService(engine.NewContext(1), Options{})
	rec = httptest.NewRecorder()
	s2.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/service", nil))
	if !strings.Contains(rec.Body.String(), `"enabled":false`) {
		t.Fatalf("service stats without durability: %s", rec.Body)
	}
}

func TestPeriodicCheckpointTicker(t *testing.T) {
	dir := t.TempDir()
	ctx := engine.NewContext(2)
	s := NewService(ctx, Options{})
	if _, err := s.EnableDurability(dir, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(DatasetSpec{Name: "fleet", Mutable: true, Width: 10, Height: 10}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.dur.checkpoints.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ticker never checkpointed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRowsFileFormat pins the bytes of a checkpoint rows
// file: a JSON array of registration events with id and wkt always,
// category and time only when set, and the text rendered from the key.
// Data directories written before the rows were EventSpecs hold the
// same bytes, so they recover unchanged.
func TestCheckpointRowsFileFormat(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableService(t, dir)
	if err := s.Register(DatasetSpec{Name: "fleet", Mutable: true, Width: 100, Height: 100, Events: []EventSpec{
		{ID: 1, WKT: "POINT(1.0 1)"},
		{ID: 2, Category: "b", Time: 3, WKT: " point ( 2.50 3 ) "},
	}}); err != nil {
		t.Fatal(err)
	}
	if rec := ingestNDJSON(t, s, "fleet", `{"op":"insert","id":3,"category":"c","time":0,"wkt":"POINT (9 9.0)"}`); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rows, err := wal.ReadChecksummed(filepath.Join(dir, "ckpt-00000001-000.rows"))
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"id":1,"wkt":"POINT (1 1)"},{"id":2,"category":"b","time":3,"wkt":"POINT (2.5 3)"},{"id":3,"category":"c","wkt":"POINT (9 9)"}]`
	if string(rows) != want {
		t.Errorf("rows file:\n%s\nwant\n%s", rows, want)
	}
	crash(t, s)

	s2, info := durableService(t, dir)
	if info.Checkpoint != 1 || info.Datasets != 1 || info.Batches != 0 {
		t.Fatalf("recovery: %+v, want a pure restore of checkpoint 1", info)
	}
	if got := listInfo(t, s2)["fleet"]; got.Events != 3 || got.LiveGeneration != 2 {
		t.Fatalf("restored %+v, want 3 events at live generation 2", got)
	}
	crash(t, s2)
}

// TestWALBatchRecordFormat pins the bytes of a logged ingest batch, as
// TestCheckpointRowsFileFormat pins the rows file: an insert with a
// category and a time, one with neither, and a delete. Together the two
// pins say a data directory written by an older build recovers to the
// state it held; the replies before the crash and after recovery agree.
func TestWALBatchRecordFormat(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableService(t, dir)
	if err := s.Register(DatasetSpec{Name: "fleet", Mutable: true, Width: 100, Height: 100, Events: []EventSpec{
		{ID: 1, Category: "a", Time: 5, WKT: "POINT (1 1)"},
	}}); err != nil {
		t.Fatal(err)
	}
	batch := `{"op":"insert","id":2,"category":"c","time":7,"wkt":"POINT(2.50 3)"}
{"op":"insert","id":3,"wkt":" point ( 4 4.0 ) "}
{"op":"delete","id":1}`
	if rec := ingestNDJSON(t, s, "fleet", batch); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	log, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// The frame: body length and CRC32C (little endian), the batch type
	// tag, the JSON payload. It is the last record of the log.
	want := "\xef\x00\x00\x00\xee\x57\x80\xd4\x03" +
		`{"dataset":"fleet","entryGen":1,"gen":2,"ops":[` +
		`{"op":"insert","id":2,"category":"c","time":7,"wkt":"POINT (2.5 3)"},` +
		`{"op":"insert","id":3,"category":"","time":0,"wkt":"POINT (4 4)"},` +
		`{"op":"delete","id":1,"category":"","time":0,"wkt":""}]}`
	if !bytes.HasSuffix(log, []byte(want)) {
		t.Errorf("log ends\n%q\nwant\n%q", log[max(0, len(log)-len(want)):], want)
	}
	before := replies(t, s)
	if want := `{"geometry":{"coordinates":[2.5,3],"type":"Point"},"properties":{"category":"c","id":2,"time":7},"type":"Feature"}` + "\n" +
		`{"geometry":{"coordinates":[4,4],"type":"Point"},"properties":{"category":"","id":3,"time":0},"type":"Feature"}` +
		"\ncount=2"; string(before[0]) != want {
		t.Fatalf("the covering window returns\n%s\nwant\n%s", before[0], want)
	}
	crash(t, s)

	s2, info := durableService(t, dir)
	if info.Registers != 1 || info.Batches != 1 {
		t.Fatalf("recovery replayed %+v", info)
	}
	after := replies(t, s2)
	for i := range before {
		if !bytes.Equal(after[i], before[i]) {
			t.Errorf("query %d after recovery:\n%s\nbefore the crash:\n%s", i, after[i], before[i])
		}
	}
	crash(t, s2)
}
