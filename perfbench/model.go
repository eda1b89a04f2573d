package main

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"

	"origami/internal/client"
	"origami/internal/costmodel"
	"origami/internal/mds"
	"origami/internal/namespace"
	"origami/internal/rpc"
	"origami/internal/trace"
)

// entry is one namespace entry of the sequential model.
type entry struct {
	dir  bool
	size int64
	mode uint16
	// attr is set once a setattr fixed size and mode.
	attr bool
	// setup marks entries that existed before the timed window.
	setup bool
}

// model is the namespace a correct system holds after replaying a
// client's trace in order: setup ops, then every access op that
// completed, with entries a failed mutation touched set aside as
// ambiguous (the op may or may not have applied).
type model struct {
	entries   map[string]entry
	ambiguous map[string]bool
}

func newModel() *model {
	return &model{entries: map[string]entry{}, ambiguous: map[string]bool{}}
}

// setattrArgs is the size and mode the benchmark sets for the op at
// index idx of a tenant's trace, so the final attributes are known.
func setattrArgs(idx int) (int64, uint16) {
	return int64(idx) + 1, uint16(0o600 | idx&0o77)
}

// apply folds one op into the model. ok is false for an op that failed;
// a failed mutation makes the paths it names ambiguous.
func (m *model) apply(op trace.Op, idx int, ok, setup bool) {
	if !op.Type.IsWrite() {
		return
	}
	if !ok {
		m.ambiguous[op.Path] = true
		if op.Dst != "" {
			m.ambiguous[op.Dst] = true
		}
		return
	}
	switch op.Type {
	case costmodel.OpCreate:
		m.entries[op.Path] = entry{setup: setup}
	case costmodel.OpMkdir:
		m.entries[op.Path] = entry{dir: true, setup: setup}
	case costmodel.OpSetattr:
		e := m.entries[op.Path]
		e.size, e.mode = setattrArgs(idx)
		e.attr = true
		m.entries[op.Path] = e
	case costmodel.OpRename:
		e := m.entries[op.Path]
		delete(m.entries, op.Path)
		if e.dir {
			for p, ce := range m.entries {
				if strings.HasPrefix(p, op.Path+"/") {
					delete(m.entries, p)
					m.entries[op.Dst+p[len(op.Path):]] = ce
				}
			}
		}
		m.entries[op.Dst] = e
	case costmodel.OpUnlink, costmodel.OpRmdir:
		delete(m.entries, op.Path)
	}
}

// walk lists every entry below root through the SDK, depth first.
func walk(c *client.Client, root string) (map[string]*namespace.Inode, error) {
	out := map[string]*namespace.Inode{}
	var visit func(dir string) error
	visit = func(dir string) error {
		kids, err := c.Readdir(dir)
		if err != nil {
			return fmt.Errorf("readdir %s: %w", dir, err)
		}
		for _, in := range kids {
			p := path.Join(dir, in.Name)
			out[p] = in
			if in.IsDir() {
				if err := visit(p); err != nil {
					return err
				}
			}
		}
		return nil
	}
	root0, err := c.Stat(root)
	if err != nil {
		return nil, fmt.Errorf("stat %s: %w", root, err)
	}
	out[root] = root0
	return out, visit(root)
}

// compare checks a walked namespace against the model and returns one
// line per mismatch (at most limit lines, plus the total count).
func (m *model) compare(actual map[string]*namespace.Inode, limit int) []string {
	var bad []string
	for p, e := range m.entries {
		if m.ambiguous[p] {
			continue
		}
		in, ok := actual[p]
		switch {
		case !ok:
			bad = append(bad, "missing "+p)
		case in.IsDir() != e.dir:
			bad = append(bad, fmt.Sprintf("type of %s: dir=%v, want dir=%v", p, in.IsDir(), e.dir))
		case e.attr && (in.Size != e.size || in.Mode != e.mode):
			bad = append(bad, fmt.Sprintf("attrs of %s: size=%d mode=%o, want size=%d mode=%o", p, in.Size, in.Mode, e.size, e.mode))
		}
	}
	for p := range actual {
		if _, ok := m.entries[p]; !ok && !m.ambiguous[p] {
			bad = append(bad, "unexpected "+p)
		}
	}
	sort.Strings(bad)
	if len(bad) > limit {
		bad = append(bad[:limit], fmt.Sprintf("... %d mismatches in all", len(bad)))
	}
	return bad
}

// errClass names a failed op's error class for the failure report.
func errClass(err error) string {
	if code := mds.ErrCode(err); code != "" {
		return code
	}
	// The SDK re-wraps some remote errors as text; the code survives in
	// the message.
	for _, code := range []string{mds.CodeNoEnt, mds.CodeNotOwner, mds.CodeBusy, mds.CodeExist, mds.CodeNotEmpty, mds.CodeNotDir, mds.CodeInvalid} {
		if strings.Contains(err.Error(), code+":") {
			return code
		}
	}
	switch {
	case errors.Is(err, rpc.ErrTimeout):
		return "deadline"
	case errors.Is(err, rpc.ErrClosed):
		return "closed"
	}
	return "other"
}
