package mds

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"origami/internal/commit"
	"origami/internal/namespace"
)

// MethodBatch semantics: atomic multi-op apply, per-op validation, and
// idempotent replay — the shard-side half of the commit pipeline's
// pipelined-submission contract.

func batchCall(t *testing.T, s *Service, clientID uint64, subs [][]byte) []BatchResult {
	t.Helper()
	body, err := s.handleBatch(context.Background(), EncodeBatchRequest(clientID, subs))
	if err != nil {
		t.Fatalf("handleBatch: %v", err)
	}
	res, _, err := DecodeBatchResponse(body)
	if err != nil {
		t.Fatalf("decode batch response: %v", err)
	}
	if len(res) != len(subs) {
		t.Fatalf("%d results for %d ops", len(res), len(subs))
	}
	return res
}

func TestBatchApplyPerOpValidation(t *testing.T) {
	s := localService(t)
	root := namespace.RootIno
	e := mustCreate(t, s, root, "e", namespace.TypeDir)
	batchesBefore := s.store.db.Stats().Batches
	subs := [][]byte{
		EncodeBatchCreate(1, root, "a", namespace.TypeFile),
		EncodeBatchCreate(2, root, "a", namespace.TypeFile), // dup inside the frame
		EncodeBatchCreate(3, root, "b", namespace.TypeFile),
		EncodeBatchRemove(4, root, "missing"), // never existed
		EncodeBatchCreate(5, root, "d", namespace.TypeDir),
		EncodeBatchCreate(6, e.Ino, "x", namespace.TypeFile),
		EncodeBatchRemove(7, root, "e"), // not empty once op 5 applied
	}
	res := batchCall(t, s, 7, subs)
	if res[0].Err != nil || res[0].Inode == nil || res[0].Inode.Name != "a" {
		t.Errorf("op 0: %+v", res[0])
	}
	if ErrCode(res[1].Err) != CodeExist {
		t.Errorf("op 1 (in-frame duplicate name): err %v, want EEXIST", res[1].Err)
	}
	if res[2].Err != nil || res[2].Inode == nil {
		t.Errorf("op 2: %+v", res[2])
	}
	if ErrCode(res[3].Err) != CodeNoEnt {
		t.Errorf("op 3 (remove of missing): err %v, want ENOENT", res[3].Err)
	}
	if res[4].Err != nil || res[4].Inode == nil || !res[4].Inode.IsDir() {
		t.Errorf("op 4: %+v", res[4])
	}
	if res[5].Err != nil {
		t.Errorf("op 5: %+v", res[5])
	}
	if ErrCode(res[6].Err) != CodeNotEmpty {
		t.Errorf("op 6 (rmdir of a dir the frame filled): err %v, want ENOTEMPTY", res[6].Err)
	}
	// A failing op must not poison its frame: the valid ops are visible.
	for _, name := range []string{"a", "b", "d"} {
		if _, found, err := s.store.Lookup(root, name); err != nil || !found {
			t.Errorf("lookup %q after batch: found=%v err=%v", name, found, err)
		}
	}
	// The whole frame was one atomic kvstore record.
	if batches := s.store.db.Stats().Batches - batchesBefore; batches != 1 {
		t.Errorf("%d kvstore batch records for one frame, want 1", batches)
	}
}

// TestCommitSmokeBatchReplayIdempotent is the replay-table proof: a
// frame re-sent byte for byte (same clientID, same opIDs) — what the
// SDK does after a transport failure or failover — is answered from the
// replay table with the original payloads, and nothing applies twice.
func TestCommitSmokeBatchReplayIdempotent(t *testing.T) {
	s := localService(t)
	root := namespace.RootIno
	const clientID = 42
	subs := [][]byte{
		EncodeBatchCreate(100, root, "x", namespace.TypeFile),
		EncodeBatchCreate(101, root, "y", namespace.TypeFile),
		EncodeBatchRemove(102, root, "x"),
	}
	first := batchCall(t, s, clientID, subs)
	for i, r := range first {
		if r.Err != nil {
			t.Fatalf("first send op %d: %v", i, r.Err)
		}
		if r.Replayed {
			t.Fatalf("first send op %d marked replayed", i)
		}
	}
	batchesAfterFirst := s.store.db.Stats().Batches

	second := batchCall(t, s, clientID, subs)
	for i, r := range second {
		if !r.Replayed {
			t.Errorf("resent op %d not answered from the replay table: %+v", i, r)
		}
		if r.Err != nil {
			t.Errorf("resent op %d: %v", i, r.Err)
		}
	}
	// The create payloads must be the original inodes, byte-identical
	// (same ino, same timestamps) — not a fresh second apply.
	if second[1].Inode == nil || first[1].Inode == nil || second[1].Inode.Ino != first[1].Inode.Ino {
		t.Errorf("replayed create returned a different inode: first=%+v second=%+v", first[1].Inode, second[1].Inode)
	}
	if got := s.store.db.Stats().Batches; got != batchesAfterFirst {
		t.Errorf("resend grew the kvstore batch count %d -> %d; nothing may re-apply", batchesAfterFirst, got)
	}
	// State check: x was created then removed; y persists exactly once.
	if _, found, _ := s.store.Lookup(root, "x"); found {
		t.Error("x exists after replayed remove")
	}
	if _, found, _ := s.store.Lookup(root, "y"); !found {
		t.Error("y missing after replay")
	}
	if n := s.reg.Counter("commit.ops.replayed").Value(); n != 3 {
		t.Errorf("commit.ops.replayed = %d, want 3", n)
	}

	// A different client re-using the same opIDs is NOT a replay: replay
	// identity is (clientID, opID), so client 43's create of "y" must get
	// its own verdict (EEXIST) rather than client 42's cached payload.
	other := batchCall(t, s, 43, [][]byte{EncodeBatchCreate(101, root, "y", namespace.TypeFile)})
	if other[0].Replayed {
		t.Error("different client answered from another client's replay entry")
	}
	if ErrCode(other[0].Err) != CodeExist {
		t.Errorf("cross-client create of existing name: %v, want EEXIST", other[0].Err)
	}
}

func TestReplayTableEvictsFIFO(t *testing.T) {
	tab := &replayTable{}
	for i := 0; i < replayTableCap+10; i++ {
		tab.store(1, uint64(i), []byte{byte(i)})
	}
	if _, ok := tab.lookup(1, 0); ok {
		t.Error("oldest entry survived past the cap")
	}
	if _, ok := tab.lookup(1, replayTableCap+9); !ok {
		t.Error("newest entry missing")
	}
	if len(tab.entries) != replayTableCap {
		t.Errorf("table holds %d entries, cap %d", len(tab.entries), replayTableCap)
	}
	// Client 0 is the "no identity" sentinel: never stored, never found.
	tab.store(0, 1, []byte("x"))
	if _, ok := tab.lookup(0, 1); ok {
		t.Error("client 0 must not participate in replay")
	}
}

func TestBatchRejectsOversizedFrame(t *testing.T) {
	s := localService(t)
	subs := make([][]byte, batchMaxOps+1)
	for i := range subs {
		subs[i] = EncodeBatchCreate(uint64(i), namespace.RootIno, fmt.Sprintf("f%d", i), namespace.TypeFile)
	}
	// Handler errors are coded strings on this side of the wire (ErrCode
	// only decodes RemoteErrors, which the RPC layer materialises).
	if _, err := s.handleBatch(context.Background(), EncodeBatchRequest(1, subs)); err == nil || !strings.HasPrefix(err.Error(), CodeInvalid) {
		t.Errorf("oversized frame: %v, want %s", err, CodeInvalid)
	}
	if _, err := s.handleBatch(context.Background(), EncodeBatchRequest(1, nil)); err == nil || !strings.HasPrefix(err.Error(), CodeInvalid) {
		t.Errorf("empty frame: %v, want %s", err, CodeInvalid)
	}
}

// TestBatchRenameIsOneWALRecord: a rename that replaces its destination
// touches three keys (delete source, delete and rewrite destination) but
// must land as one atomic WAL record with one commit ack, so a crash can
// never leave the entry under neither name.
func TestBatchRenameIsOneWALRecord(t *testing.T) {
	s := localService(t)
	s.store.SetCommitter(commit.NewPipeline(commit.SyncFsync, 0, s.reg))
	a := mustCreate(t, s, namespace.RootIno, "a", namespace.TypeDir)
	b := mustCreate(t, s, namespace.RootIno, "b", namespace.TypeDir)
	f := mustCreate(t, s, a.Ino, "f", namespace.TypeFile)
	mustCreate(t, s, b.Ino, "f", namespace.TypeFile)
	batches := s.store.db.Stats().Batches
	acks := s.reg.Counter("commit.ops.acked").Value()

	res := batchOne(t, s, EncodeBatchRename(0, a.Ino, "f", b.Ino, "f"))
	if res.Err != nil || res.Inode == nil || res.Inode.Ino != f.Ino || res.Inode.Parent != b.Ino {
		t.Fatalf("rename: %+v", res)
	}
	if got := s.store.db.Stats().Batches - batches; got != 1 {
		t.Errorf("rename wrote %d batch records, want 1", got)
	}
	if got := s.reg.Counter("commit.ops.acked").Value() - acks; got != 1 {
		t.Errorf("rename took %d commit acks, want 1", got)
	}
	if in, found, _ := s.store.Getattr(f.Ino); !found || in.Parent != b.Ino {
		t.Errorf("moved inode not indexed under its new parent: %+v", in)
	}
}

// TestBatchSetattrRacingRenameNeverBusy races setattrs against renames of
// the same inode. A setattr whose pre-pass saw the old binding conflicts
// under the locks; the shard must re-apply it rather than answer EBUSY.
func TestBatchSetattrRacingRenameNeverBusy(t *testing.T) {
	s := localService(t)
	d := mustCreate(t, s, namespace.RootIno, "d", namespace.TypeDir)
	f := mustCreate(t, s, d.Ino, "a", namespace.TypeFile)
	const rounds = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		names := [2]string{"a", "b"}
		for i := 0; i < rounds; i++ {
			from, to := names[i%2], names[(i+1)%2]
			body, err := s.handleBatch(context.Background(), EncodeBatchRequest(0, [][]byte{EncodeBatchRename(0, d.Ino, from, d.Ino, to)}))
			if err != nil {
				t.Errorf("rename: %v", err)
				return
			}
			if res, _, err := DecodeBatchResponse(body); err != nil || res[0].Err != nil {
				t.Errorf("rename %s -> %s: %v %v", from, to, err, res[0].Err)
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		if res := batchOne(t, s, EncodeBatchSetattr(0, f.Ino, int64(i), 0o600)); res.Err != nil {
			t.Errorf("setattr %d: %v", i, res.Err)
			break
		}
	}
	<-done
}
