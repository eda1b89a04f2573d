package mds

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"origami/internal/kvstore"
	"origami/internal/lease"
	"origami/internal/namespace"
	"origami/internal/rpc"
)

// MethodBatch is the one mutation path. The SDK submits every create,
// mkdir, remove, setattr and same-shard rename as a sub-op of a frame,
// coalescing concurrent ones bound for the same owner; the shard
// validates each op, applies every valid one as ONE atomic kvstore
// batch — one WAL record, one commit-pipeline ack — and answers per-op.
// Each op carries a (clientID, opID) identity so an op retried after a
// transport failure is answered from the replay table instead of
// applied twice.

// BatchOpKind tags one sub-operation of a MethodBatch frame.
type BatchOpKind uint8

const (
	// BatchOpCreate creates a file or directory under a parent.
	BatchOpCreate BatchOpKind = iota + 1
	// BatchOpRemove unlinks a file or removes an empty directory.
	BatchOpRemove
	// BatchOpSetattr updates size and mode of an inode.
	BatchOpSetattr
	// BatchOpRename moves an entry between two directories of this
	// shard, replacing a destination file or empty directory.
	BatchOpRename
)

// Per-op result statuses on the wire.
const (
	batchStatusOK       uint8 = 0 // applied; payload = inode (empty for remove)
	batchStatusErr      uint8 = 1 // failed; payload = coded error string
	batchStatusReplayed uint8 = 2 // duplicate of an already-applied op
)

// batchMaxOps bounds one frame, mirroring the resolve-path bound.
const batchMaxOps = 4096

// EncodeBatchCreate encodes one create/mkdir sub-op.
func EncodeBatchCreate(opID uint64, parent namespace.Ino, name string, typ namespace.FileType) []byte {
	w := (&rpc.Wire{}).Grow(8 + 1 + 8 + 4 + len(name) + 1)
	w.U64(opID).U8(uint8(BatchOpCreate)).U64(uint64(parent)).Str(name).U8(uint8(typ))
	return w.Bytes()
}

// EncodeBatchRemove encodes one remove sub-op.
func EncodeBatchRemove(opID uint64, parent namespace.Ino, name string) []byte {
	w := (&rpc.Wire{}).Grow(8 + 1 + 8 + 4 + len(name))
	w.U64(opID).U8(uint8(BatchOpRemove)).U64(uint64(parent)).Str(name)
	return w.Bytes()
}

// EncodeBatchSetattr encodes one setattr sub-op.
func EncodeBatchSetattr(opID uint64, ino namespace.Ino, size int64, mode uint16) []byte {
	w := (&rpc.Wire{}).Grow(8 + 1 + 8 + 8 + 4)
	w.U64(opID).U8(uint8(BatchOpSetattr)).U64(uint64(ino)).I64(size).U32(uint32(mode))
	return w.Bytes()
}

// EncodeBatchRename encodes one same-shard rename sub-op.
func EncodeBatchRename(opID uint64, srcParent namespace.Ino, srcName string, dstParent namespace.Ino, dstName string) []byte {
	w := (&rpc.Wire{}).Grow(8 + 1 + 8 + 4 + len(srcName) + 8 + 4 + len(dstName))
	w.U64(opID).U8(uint8(BatchOpRename)).U64(uint64(srcParent)).Str(srcName).U64(uint64(dstParent)).Str(dstName)
	return w.Bytes()
}

// EncodeBatchRequest frames sub-ops into one MethodBatch body.
func EncodeBatchRequest(clientID uint64, subs [][]byte) []byte {
	env := rpc.EncodeBatch(subs)
	w := (&rpc.Wire{}).Grow(8 + 4 + len(env))
	w.U64(clientID).Blob(env)
	return w.Bytes()
}

// BatchResult is one decoded per-op outcome of a MethodBatch response.
type BatchResult struct {
	// Replayed marks a duplicate answered from the shard's replay table
	// (the op had already been applied by an earlier frame).
	Replayed bool
	// Inode is the created, updated or moved inode; nil for removes and
	// errors.
	Inode *namespace.Inode
	// Err is the op's coded failure (nil when it applied).
	Err error
}

// DecodeBatchResponse splits a MethodBatch response into per-op results
// (in request order) and the lease-grant trailer.
func DecodeBatchResponse(body []byte) ([]BatchResult, []lease.Grant, error) {
	r := rpc.NewReader(body)
	env := r.Blob()
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	grants := lease.DecodeGrants(r)
	subs, err := rpc.DecodeBatch(env)
	if err != nil {
		return nil, nil, err
	}
	out := make([]BatchResult, 0, len(subs))
	for _, sub := range subs {
		sr := rpc.NewReader(sub)
		status := sr.U8()
		var br BatchResult
		if status == batchStatusErr {
			// Re-materialise the coded error so mds.ErrCode works on it
			// exactly like on a frame-level RemoteError.
			br.Err = &rpc.RemoteError{Method: MethodBatch, Msg: sr.Str()}
		} else {
			br.Replayed = status == batchStatusReplayed
			if payload := sr.Blob(); len(payload) > 0 {
				in, derr := namespace.DecodeInode(payload)
				if derr != nil {
					return nil, nil, derr
				}
				br.Inode = in
			}
		}
		if err := sr.Err(); err != nil {
			return nil, nil, err
		}
		out = append(out, br)
	}
	return out, grants, nil
}

func encodeBatchResultOK(status uint8, payload []byte) []byte {
	w := (&rpc.Wire{}).Grow(1 + 4 + len(payload))
	w.U8(status).Blob(payload)
	return w.Bytes()
}

func encodeBatchResultErr(err error) []byte {
	msg := err.Error()
	w := (&rpc.Wire{}).Grow(1 + 4 + len(msg))
	w.U8(batchStatusErr).Str(msg)
	return w.Bytes()
}

// ErrConflict reports a batch op whose target changed shape between the
// unlocked pre-pass and the stripe locks (e.g. a concurrent rename moved
// the inode, or a remove or rename victim flipped between file and
// directory). applyBatch re-applies such ops with a fresh stripe set; an
// op still conflicting after batchConflictRetries passes fails EBUSY.
var ErrConflict = errors.New("mds: entry changed during batch")

// batchConflictRetries bounds applyBatch's re-apply passes. Each pass
// needs a racer to reshape the same entry inside one lock hand-off, so
// the bound is never reached outside adversarial schedules.
const batchConflictRetries = 8

// batchStoreOp is one validated-and-ready mutation of an atomic batch.
type batchStoreOp struct {
	kind   BatchOpKind
	create *namespace.Inode // BatchOpCreate: fully built inode
	parent namespace.Ino    // BatchOpRemove, BatchOpRename (source)
	name   string           // BatchOpRemove, BatchOpRename (source)
	dstDir namespace.Ino    // BatchOpRename
	dst    string           // BatchOpRename
	ino    namespace.Ino    // BatchOpSetattr
	size   int64            // BatchOpSetattr
	mode   uint16           // BatchOpSetattr
	ctime  int64            // BatchOpSetattr, BatchOpRename
}

// batchStoreResult pairs one batch op with its outcome: the applied
// inode (created/updated/moved, or the removed victim) or a sentinel
// error. enc is the applied inode's encoding, shared between the WAL put
// and the response payload so the hot path encodes each inode once.
type batchStoreResult struct {
	in  *namespace.Inode
	enc []byte
	err error
}

// applyBatch applies the ops as atomic kvstore batches, re-applying ops
// that hit ErrConflict with a fresh stripe set so that callers never see
// a shape race. Ops that apply on the first pass share one WAL record;
// each re-apply pass is a record of its own.
func (s *Store) applyBatch(ctx context.Context, ops []batchStoreOp) []batchStoreResult {
	res := s.applyBatchOnce(ctx, ops)
	for pass := 0; pass < batchConflictRetries; pass++ {
		var redo []int
		for i := range res {
			if res[i].err == ErrConflict {
				redo = append(redo, i)
			}
		}
		if len(redo) == 0 {
			break
		}
		again := make([]batchStoreOp, len(redo))
		for k, i := range redo {
			again[k] = ops[i]
		}
		for k, r := range s.applyBatchOnce(ctx, again) {
			res[redo[k]] = r
		}
	}
	return res
}

// applyBatchOnce applies the ops as ONE atomic kvstore batch under the
// stripe-lock hierarchy: all stripes the batch touches are taken in
// index order (the same discipline every multi-directory op uses), each
// op is validated against a staged view that includes the earlier ops of
// the same batch, and every valid mutation lands in a single WAL batch
// record — so the whole frame is either durable together or (after a
// torn-batch crash) absent together, and the commit pipeline charges one
// ack wait for the frame instead of one per op.
//
// Per-op validation failures (EEXIST, ENOENT, ...) do not poison the
// batch: the failing op is excluded and reported, the rest commit.
func (s *Store) applyBatchOnce(ctx context.Context, ops []batchStoreOp) []batchStoreResult {
	res := make([]batchStoreResult, len(ops))
	// Unlocked pre-pass: gather the stripe set. Directory removes and
	// renames over a directory need the victim's stripe (emptiness
	// check); setattr locks the parent of the ino's current binding. All
	// are re-verified under the locks; a shape change fails that op with
	// ErrConflict instead of looping.
	var dirBuf [8]namespace.Ino // stack room for a small frame's stripes
	dirs := dirBuf[:0]
	type prepass struct {
		ref    inoRef        // BatchOpSetattr: the binding the pre-pass saw
		victim namespace.Ino // the directory a remove or rename replaces
	}
	pre := make([]prepass, len(ops))
	crossRename := false
	for i, op := range ops {
		switch op.kind {
		case BatchOpCreate:
			dirs = append(dirs, op.create.Parent)
		case BatchOpRemove, BatchOpRename:
			dir, name := op.parent, op.name
			if op.kind == BatchOpRename {
				dirs = append(dirs, op.parent)
				dir, name = op.dstDir, op.dst
				crossRename = crossRename || op.parent != op.dstDir
			}
			dirs = append(dirs, dir)
			if in, found, _ := s.Lookup(dir, name); found && in.IsDir() {
				pre[i].victim = in.Ino
				dirs = append(dirs, in.Ino)
			}
		case BatchOpSetattr:
			s.inoMu.RLock()
			ref, ok := s.byIno[op.ino]
			s.inoMu.RUnlock()
			if !ok {
				res[i].err = ErrNoEnt
				continue
			}
			pre[i].ref = ref
			dirs = append(dirs, ref.parent)
		default:
			res[i].err = fmt.Errorf("mds: unknown batch op kind %d", op.kind)
		}
	}
	if len(dirs) == 0 {
		return res
	}
	if crossRename {
		// Cross-directory renames serialise shard-wide, as in the VFS: the
		// subtree check below walks ancestors outside the held stripes,
		// and two concurrent moves could otherwise each pass it and
		// together form a cycle.
		s.renameMu.Lock()
		defer s.renameMu.Unlock()
	}
	unlock := s.lockStripes(dirs...)
	defer unlock()

	// Staged view: later ops of the batch see earlier ops' effects, so a
	// double create of one name inside a frame still yields EEXIST. Only
	// later ops read it, so the frame's last op (a lone op's only one)
	// stages nothing.
	var staged map[string]*namespace.Inode
	var stagedDel map[string]bool
	stage := func(i int, k []byte, in *namespace.Inode) {
		if i == len(ops)-1 {
			return
		}
		if staged == nil {
			staged = make(map[string]*namespace.Inode)
			stagedDel = make(map[string]bool)
		}
		if in == nil {
			stagedDel[string(k)] = true
			delete(staged, string(k))
		} else {
			staged[string(k)] = in
			delete(stagedDel, string(k))
		}
	}
	peek := func(parent namespace.Ino, name string) (*namespace.Inode, bool, error) {
		if staged != nil {
			k := string(namespace.EncodeKey(parent, name))
			if in, ok := staged[k]; ok {
				return in, true, nil
			}
			if stagedDel[k] {
				return nil, false, nil
			}
		}
		return s.getLocked(parent, name)
	}
	// hasChild reports whether dir has an entry in the staged view; the
	// caller holds dir's stripe, blocking concurrent creates under it.
	hasChild := func(dir namespace.Ino) (bool, error) {
		for _, in := range staged {
			if in.Parent == dir {
				return true, nil
			}
		}
		lo, hi := namespace.DirKeyRange(dir)
		any := false
		err := s.db.Scan(lo, hi, func(k, v []byte) bool {
			any = !stagedDel[string(k)]
			return !any
		})
		return any, err
	}
	// movedTo records directories this batch already moved, so the
	// subtree check sees the staged tree rather than the index.
	var movedTo map[namespace.Ino]namespace.Ino
	// inSubtree reports whether dir lies in the subtree rooted at top.
	inSubtree := func(top, dir namespace.Ino) bool {
		for {
			if dir == top {
				return true
			}
			if dir == namespace.RootIno {
				return false
			}
			if p, ok := movedTo[dir]; ok {
				dir = p
				continue
			}
			s.inoMu.RLock()
			ref, ok := s.byIno[dir]
			s.inoMu.RUnlock()
			if !ok {
				return false // the chain leaves this shard
			}
			dir = ref.parent
		}
	}
	type idxOp struct {
		ino namespace.Ino
		ref inoRef
		del bool
	}
	var idxBuf [4]idxOp // stack room for a small frame's index updates
	idx := idxBuf[:0]
	b := &kvstore.Batch{}
	for i, op := range ops {
		if res[i].err != nil {
			continue
		}
		switch op.kind {
		case BatchOpCreate:
			in := op.create
			s.inoMu.RLock()
			pref, ok := s.byIno[in.Parent]
			s.inoMu.RUnlock()
			if !ok || !pref.isDir {
				res[i].err = ErrNotDir
				continue
			}
			if _, found, err := peek(in.Parent, in.Name); err != nil {
				res[i].err = err
				continue
			} else if found {
				res[i].err = ErrExist
				continue
			}
			k := namespace.EncodeKey(in.Parent, in.Name)
			stage(i, k, in)
			enc := namespace.EncodeInode(in)
			b.Put(k, enc)
			idx = append(idx, idxOp{ino: in.Ino, ref: inoRef{parent: in.Parent, name: in.Name, isDir: in.IsDir()}})
			res[i].in = in
			res[i].enc = enc
		case BatchOpRemove:
			in, found, err := peek(op.parent, op.name)
			if err != nil {
				res[i].err = err
				continue
			}
			if !found {
				res[i].err = ErrNoEnt
				continue
			}
			if in.IsDir() {
				if pre[i].victim != in.Ino {
					// Victim changed shape since the pre-pass; its stripe
					// may not be held.
					res[i].err = ErrConflict
					continue
				}
				any, err := hasChild(in.Ino)
				if err != nil {
					res[i].err = err
					continue
				}
				if any {
					res[i].err = ErrNotEmpty
					continue
				}
			}
			k := namespace.EncodeKey(op.parent, op.name)
			stage(i, k, nil)
			b.Delete(k)
			idx = append(idx, idxOp{ino: in.Ino, del: true})
			res[i].in = in
		case BatchOpSetattr:
			s.inoMu.RLock()
			cur, ok := s.byIno[op.ino]
			s.inoMu.RUnlock()
			if !ok {
				res[i].err = ErrNoEnt
				continue
			}
			if cur != pre[i].ref {
				res[i].err = ErrConflict
				continue
			}
			in, found, err := peek(cur.parent, cur.name)
			if err != nil {
				res[i].err = err
				continue
			}
			if !found || in.Ino != op.ino {
				res[i].err = ErrNoEnt
				continue
			}
			upd := *in
			upd.Size = op.size
			upd.Mode = op.mode
			upd.Ctime = op.ctime
			k := namespace.EncodeKey(cur.parent, cur.name)
			stage(i, k, &upd)
			enc := namespace.EncodeInode(&upd)
			b.Put(k, enc)
			idx = append(idx, idxOp{ino: upd.Ino, ref: cur})
			res[i].in = &upd
			res[i].enc = enc
		case BatchOpRename:
			// The rules of namespace.Tree.Rename, checked in its order.
			s.inoMu.RLock()
			dref, ok := s.byIno[op.dstDir]
			s.inoMu.RUnlock()
			if !ok || !dref.isDir {
				res[i].err = ErrNotDir
				continue
			}
			src, found, err := peek(op.parent, op.name)
			if err != nil {
				res[i].err = err
				continue
			}
			if !found {
				res[i].err = ErrNoEnt
				continue
			}
			if src.IsDir() && inSubtree(src.Ino, op.dstDir) {
				res[i].err = ErrInvalid
				continue
			}
			dst, dstFound, err := peek(op.dstDir, op.dst)
			if err != nil {
				res[i].err = err
				continue
			}
			if dstFound {
				if dst.Ino == src.Ino {
					// Rename onto itself: a no-op that still succeeds.
					res[i].in = src
					res[i].enc = namespace.EncodeInode(src)
					continue
				}
				if dst.IsDir() {
					if !src.IsDir() {
						res[i].err = ErrIsDir
						continue
					}
					if pre[i].victim != dst.Ino {
						res[i].err = ErrConflict
						continue
					}
					any, err := hasChild(dst.Ino)
					if err != nil {
						res[i].err = err
						continue
					}
					if any {
						res[i].err = ErrNotEmpty
						continue
					}
				} else if src.IsDir() {
					res[i].err = ErrNotDir
					continue
				}
				idx = append(idx, idxOp{ino: dst.Ino, del: true})
			}
			moved := *src
			moved.Parent = op.dstDir
			moved.Name = op.dst
			moved.Ctime = op.ctime
			sk := namespace.EncodeKey(op.parent, op.name)
			dk := namespace.EncodeKey(op.dstDir, op.dst)
			stage(i, sk, nil)
			stage(i, dk, &moved)
			if moved.IsDir() && i < len(ops)-1 {
				if movedTo == nil {
					movedTo = make(map[namespace.Ino]namespace.Ino)
				}
				movedTo[moved.Ino] = op.dstDir
			}
			enc := namespace.EncodeInode(&moved)
			b.Delete(sk)
			b.Put(dk, enc)
			idx = append(idx, idxOp{ino: moved.Ino, ref: inoRef{parent: op.dstDir, name: op.dst, isDir: moved.IsDir()}})
			res[i].in = &moved
			res[i].enc = enc
		}
	}
	if b.Len() == 0 {
		return res
	}
	if err := s.db.ApplyBatchCtx(ctx, b); err != nil {
		for i := range res {
			if res[i].err == nil {
				res[i].in = nil
				res[i].err = err
			}
		}
		return res
	}
	s.inoMu.Lock()
	for _, op := range idx {
		if op.del {
			delete(s.byIno, op.ino)
		} else {
			s.byIno[op.ino] = op.ref
		}
	}
	s.inoMu.Unlock()
	return res
}

// replayTableCap bounds the per-shard replay table; old entries evict
// FIFO. Sized far above any client's in-flight window times the retry
// horizon, so a legitimate retry always finds its entry.
const replayTableCap = 8192

type replayKey struct{ client, op uint64 }

// replayTable deduplicates re-sent batch ops: applied ops record their
// response payload under (clientID, opID), and a duplicate is answered
// from here instead of re-applied. It is the only exactly-once mechanism
// of the mutation path. Its limit: the table lives in memory, so after a
// restart or failover a retried op gets the namespace's own answer (a
// create already applied sees EEXIST, a remove ENOENT).
type replayTable struct {
	mu      sync.Mutex
	entries map[replayKey][]byte
	order   []replayKey
}

func (t *replayTable) lookup(client, op uint64) ([]byte, bool) {
	if client == 0 {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	payload, ok := t.entries[replayKey{client, op}]
	return payload, ok
}

func (t *replayTable) store(client, op uint64, payload []byte) {
	if client == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.entries == nil {
		t.entries = make(map[replayKey][]byte)
	}
	k := replayKey{client, op}
	if _, dup := t.entries[k]; dup {
		return
	}
	t.entries[k] = payload
	t.order = append(t.order, k)
	for len(t.order) > replayTableCap {
		delete(t.entries, t.order[0])
		t.order = t.order[1:]
	}
}

// batchOpError maps the store sentinels onto wire error codes.
func batchOpError(err error) error {
	switch {
	case errors.Is(err, ErrNotDir):
		return CodedError(CodeNotDir, "%v", err)
	case errors.Is(err, ErrExist):
		return CodedError(CodeExist, "%v", err)
	case errors.Is(err, ErrNoEnt):
		return CodedError(CodeNoEnt, "%v", err)
	case errors.Is(err, ErrNotEmpty):
		return CodedError(CodeNotEmpty, "%v", err)
	case errors.Is(err, ErrIsDir):
		return CodedError(CodeIsDir, "%v", err)
	case errors.Is(err, ErrInvalid):
		return CodedError(CodeInvalid, "%v", err)
	case errors.Is(err, ErrConflict):
		return CodedError(CodeBusy, "%v", err)
	}
	return err
}

// handleBatch serves MethodBatch: decode the frame, answer duplicates
// from the replay table, validate ownership per op, apply everything
// valid as one atomic WAL batch record, and answer per-op with one
// grant trailer covering every mutated directory.
func (s *Service) handleBatch(ctx context.Context, body []byte) ([]byte, error) {
	start := time.Now()
	r := rpc.NewReader(body)
	clientID := r.U64()
	env := r.Blob()
	if err := r.Err(); err != nil {
		return nil, CodedError(CodeInvalid, "%v", err)
	}
	subs, err := rpc.DecodeBatch(env)
	if err != nil {
		return nil, CodedError(CodeInvalid, "%v", err)
	}
	if len(subs) == 0 || len(subs) > batchMaxOps {
		return nil, CodedError(CodeInvalid, "batch of %d ops", len(subs))
	}
	results := make([][]byte, len(subs))
	storeOps := make([]batchStoreOp, 0, len(subs))
	// refs[j] names storeOps[j]'s slot in the frame and its op ID.
	type storeRef struct {
		i    int
		opID uint64
	}
	refs := make([]storeRef, 0, len(subs))
	now := s.now()
	// Ownership memo: a frame often repeats parents, and ownsEntry costs a
	// store read — pay it once per distinct directory, not once per op.
	ownCache := make(map[namespace.Ino]bool, len(subs))
	owns := func(dir namespace.Ino) bool {
		v, ok := ownCache[dir]
		if !ok {
			v = s.ownsEntry(dir)
			ownCache[dir] = v
		}
		return v
	}
	for i, sub := range subs {
		sr := rpc.NewReader(sub)
		opID := sr.U64()
		kind := BatchOpKind(sr.U8())
		if err := sr.Err(); err != nil {
			results[i] = encodeBatchResultErr(CodedError(CodeInvalid, "%v", err))
			continue
		}
		// Replay hit: a re-sent frame repeated an op this shard already
		// applied; answer from the table without touching the store.
		if payload, ok := s.replays.lookup(clientID, opID); ok {
			s.reg.Counter("commit.ops.replayed").Inc()
			results[i] = encodeBatchResultOK(batchStatusReplayed, payload)
			continue
		}
		switch kind {
		case BatchOpCreate:
			parent := namespace.Ino(sr.U64())
			name := sr.Str()
			typ := namespace.FileType(sr.U8())
			if err := sr.Err(); err != nil || name == "" {
				results[i] = encodeBatchResultErr(CodedError(CodeInvalid, "bad create op"))
				continue
			}
			if !owns(parent) {
				results[i] = encodeBatchResultErr(CodedError(CodeNotOwner, "dir %d not on MDS %d", parent, s.ID))
				continue
			}
			in := &namespace.Inode{
				Ino:    s.store.AllocIno(),
				Parent: parent,
				Name:   name,
				Type:   typ,
				Mode:   0o644,
				Nlink:  1,
				Atime:  now, Mtime: now, Ctime: now,
			}
			if typ == namespace.TypeDir {
				in.Mode = 0o755
				in.Nlink = 2
			}
			storeOps = append(storeOps, batchStoreOp{kind: BatchOpCreate, create: in})
			refs = append(refs, storeRef{i, opID})
		case BatchOpRemove:
			parent := namespace.Ino(sr.U64())
			name := sr.Str()
			if err := sr.Err(); err != nil || name == "" {
				results[i] = encodeBatchResultErr(CodedError(CodeInvalid, "bad remove op"))
				continue
			}
			if !owns(parent) {
				results[i] = encodeBatchResultErr(CodedError(CodeNotOwner, "dir %d not on MDS %d", parent, s.ID))
				continue
			}
			storeOps = append(storeOps, batchStoreOp{kind: BatchOpRemove, parent: parent, name: name})
			refs = append(refs, storeRef{i, opID})
		case BatchOpSetattr:
			ino := namespace.Ino(sr.U64())
			size := sr.I64()
			mode := uint16(sr.U32())
			if err := sr.Err(); err != nil {
				results[i] = encodeBatchResultErr(CodedError(CodeInvalid, "bad setattr op"))
				continue
			}
			storeOps = append(storeOps, batchStoreOp{kind: BatchOpSetattr, ino: ino, size: size, mode: mode, ctime: now})
			refs = append(refs, storeRef{i, opID})
		case BatchOpRename:
			srcDir := namespace.Ino(sr.U64())
			src := sr.Str()
			dstDir := namespace.Ino(sr.U64())
			dst := sr.Str()
			if err := sr.Err(); err != nil || src == "" || dst == "" {
				results[i] = encodeBatchResultErr(CodedError(CodeInvalid, "bad rename op"))
				continue
			}
			if !owns(srcDir) || !owns(dstDir) {
				// A cross-shard rename is the client's to orchestrate
				// (MethodInsert on the destination, then a remove here).
				results[i] = encodeBatchResultErr(CodedError(CodeNotOwner, "rename %d -> %d not within MDS %d", srcDir, dstDir, s.ID))
				continue
			}
			storeOps = append(storeOps, batchStoreOp{kind: BatchOpRename, parent: srcDir, name: src, dstDir: dstDir, dst: dst, ctime: now})
			refs = append(refs, storeRef{i, opID})
		default:
			results[i] = encodeBatchResultErr(CodedError(CodeInvalid, "unknown batch op kind %d", kind))
		}
	}
	applied := s.store.applyBatch(ctx, storeOps)
	// Charge each applied op an equal share of the frame's service time —
	// the Data Collector sees per-directory write load, not frame counts.
	perOpNS := time.Since(start).Nanoseconds() / int64(len(subs))
	var dirBuf [4]namespace.Ino // stack room for a small frame's grant dirs
	grantDirs := dirBuf[:0]
	seenDir := make(map[namespace.Ino]bool)
	for j, ar := range applied {
		i := refs[j].i
		op := storeOps[j]
		if ar.err != nil {
			// ErrNoEnt on a setattr means the ino is not bound on this
			// shard: answer not-owner so the client refreshes its map.
			if op.kind == BatchOpSetattr && errors.Is(ar.err, ErrNoEnt) {
				results[i] = encodeBatchResultErr(CodedError(CodeNotOwner, "ino %d not on MDS %d", op.ino, s.ID))
				continue
			}
			results[i] = encodeBatchResultErr(batchOpError(ar.err))
			continue
		}
		var payload []byte
		var dir namespace.Ino
		switch op.kind {
		case BatchOpCreate:
			payload = ar.enc
			dir = ar.in.Parent
		case BatchOpRemove:
			dir = op.parent
			if ar.in.IsDir() {
				s.leases.Revoke(ar.in.Ino)
			}
		case BatchOpSetattr:
			payload = ar.enc
			dir = ar.in.Parent
		case BatchOpRename:
			payload = ar.enc
			dir = op.parent
			if op.dstDir != dir {
				s.leases.Bump(op.dstDir)
				if !seenDir[op.dstDir] {
					seenDir[op.dstDir] = true
					grantDirs = append(grantDirs, op.dstDir)
				}
			}
		}
		s.recordWrite(dir, perOpNS)
		s.leases.Bump(dir)
		if !seenDir[dir] {
			seenDir[dir] = true
			grantDirs = append(grantDirs, dir)
		}
		s.replays.store(clientID, refs[j].opID, payload)
		results[i] = encodeBatchResultOK(batchStatusOK, payload)
	}
	out := rpc.EncodeBatch(results)
	resp := (&rpc.Wire{}).Grow(4 + len(out))
	resp.Blob(out)
	return s.withGrants(resp.Bytes(), grantDirs...), nil
}
