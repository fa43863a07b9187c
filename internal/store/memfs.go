// Package store implements the Tensor Store: a hierarchical, in-memory
// virtual file system that holds the model and dataset partitions of the
// PTC on every worker (§5.2). The tree hierarchy mirrors the layered
// model structure ("/job/model/dev0/block.2/attn/qkv/weight"), with
// sub-tensors as leaves. A REST API exposes NumPy-like sub-tensor range
// queries ("range=[:,2:4]"), which let the State Transformer fetch
// exactly the ranges it needs instead of whole tensors.
package store

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"

	"tenplex/internal/tensor"
)

// MemFS is a thread-safe hierarchical in-memory file system whose leaves
// are tensors or raw blobs. The zero value is not usable; call NewMemFS.
type MemFS struct {
	mu   sync.RWMutex
	root *node
}

// node maps are created lazily on first insert (reads of nil maps are
// valid in Go), so growing a deep staging tree costs one allocation per
// directory instead of three.
type node struct {
	dirs  map[string]*node
	files map[string]entry
}

type entry struct {
	t    *tensor.Tensor
	blob []byte
}

func newNode() *node { return &node{} }

func (n *node) putDir(name string, d *node) {
	if n.dirs == nil {
		n.dirs = map[string]*node{}
	}
	n.dirs[name] = d
}

func (n *node) putFile(name string, e entry) {
	if n.files == nil {
		n.files = map[string]entry{}
	}
	n.files[name] = e
}

// NewMemFS returns an empty file system.
func NewMemFS() *MemFS { return &MemFS{root: newNode()} }

// lookupPath walks to the parent directory of path without allocating
// (components are substrings of path; no intermediate slice is built).
// If create is set, missing directories are created. Returns the parent
// node and the leaf name. The store sits on the transformer's per-fetch
// hot path, so the walk being allocation-free matters.
func (fs *MemFS) lookupPath(path string, create bool) (*node, string, error) {
	n := fs.root
	var prev string
	seen := false
	for i := 0; i < len(path); {
		for i < len(path) && path[i] == '/' {
			i++
		}
		if i >= len(path) {
			break
		}
		j := i
		for j < len(path) && path[j] != '/' {
			j++
		}
		comp := path[i:j]
		i = j
		if comp == "." || comp == ".." {
			return nil, "", fmt.Errorf("store: path %q contains %q", path, comp)
		}
		if seen {
			child, ok := n.dirs[prev]
			if !ok {
				if !create {
					return nil, "", fmt.Errorf("store: directory %q not found", prev)
				}
				if _, isFile := n.files[prev]; isFile {
					return nil, "", fmt.Errorf("store: %q is a file, not a directory", prev)
				}
				child = newNode()
				n.putDir(prev, child)
			}
			n = child
		}
		prev = comp
		seen = true
	}
	if !seen {
		return nil, "", fmt.Errorf("store: empty path %q", path)
	}
	return n, prev, nil
}

// PutTensor stores t at path, overwriting any existing file.
func (fs *MemFS) PutTensor(path string, t *tensor.Tensor) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, name, err := fs.lookupPath(path, true)
	if err != nil {
		return err
	}
	if _, isDir := dir.dirs[name]; isDir {
		return fmt.Errorf("store: %q is a directory", path)
	}
	dir.putFile(name, entry{t: t})
	return nil
}

// PutBlob stores raw bytes (e.g. checkpoint metadata, dataset chunks) at
// path.
func (fs *MemFS) PutBlob(path string, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, name, err := fs.lookupPath(path, true)
	if err != nil {
		return err
	}
	if _, isDir := dir.dirs[name]; isDir {
		return fmt.Errorf("store: %q is a directory", path)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	dir.putFile(name, entry{blob: cp})
	return nil
}

// GetTensor returns the tensor stored at path.
func (fs *MemFS) GetTensor(path string) (*tensor.Tensor, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	dir, name, err := fs.lookupPath(path, false)
	if err != nil {
		return nil, err
	}
	e, ok := dir.files[name]
	if !ok {
		return nil, fmt.Errorf("store: %q not found", path)
	}
	if e.t == nil {
		return nil, fmt.Errorf("store: %q is a blob, not a tensor", path)
	}
	return e.t, nil
}

// GetSlice returns a copy of the sub-tensor reg of the tensor at path.
// This is the range-query primitive: only the requested bytes are
// copied, so remote callers move minimal data.
func (fs *MemFS) GetSlice(path string, reg tensor.Region) (*tensor.Tensor, error) {
	t, err := fs.GetTensor(path)
	if err != nil {
		return nil, err
	}
	if !reg.Valid(t.Shape()) {
		return nil, fmt.Errorf("store: range %v invalid for %q (shape %v)", reg, path, t.Shape())
	}
	// Tensors in the store are replaced, never mutated, so slicing the
	// snapshot without the lock is safe.
	return t.Slice(reg), nil
}

// ReadRegionInto copies the range reg (nil for the whole tensor) of the
// tensor at path directly into the sub-region at of dst (nil for all of
// dst) — the single-copy read path: bytes move from the stored buffer
// to their final strided destination offsets exactly once.
func (fs *MemFS) ReadRegionInto(path string, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (int64, error) {
	t, err := fs.GetTensor(path)
	if err != nil {
		return 0, err
	}
	if reg == nil {
		reg = tensor.FullRegion(t.Shape())
	}
	if at == nil {
		at = tensor.FullRegion(dst.Shape())
	}
	// CopyRegion validates both regions in place (no allocation), which
	// keeps this hot path free of per-call garbage.
	n, err := tensor.CopyRegion(dst, at, t, reg)
	if err != nil {
		return 0, fmt.Errorf("store: read %q into region: %w", path, err)
	}
	return n, nil
}

// PutTensorFrom stores a tensor of the given dtype and shape at path,
// reading exactly its payload from r directly into the new tensor's
// backing buffer (one allocation, one copy).
func (fs *MemFS) PutTensorFrom(path string, dt tensor.DType, shape []int, r io.Reader) error {
	if !dt.Valid() {
		return fmt.Errorf("store: put %q: invalid dtype", path)
	}
	t := tensor.New(dt, shape...)
	if _, err := io.ReadFull(r, t.Data()); err != nil {
		return fmt.Errorf("store: put %q: payload: %w", path, err)
	}
	return fs.PutTensor(path, t)
}

// GetBlob returns the raw bytes stored at path.
func (fs *MemFS) GetBlob(path string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	dir, name, err := fs.lookupPath(path, false)
	if err != nil {
		return nil, err
	}
	e, ok := dir.files[name]
	if !ok {
		return nil, fmt.Errorf("store: %q not found", path)
	}
	if e.blob == nil {
		return nil, fmt.Errorf("store: %q is a tensor, not a blob", path)
	}
	cp := make([]byte, len(e.blob))
	copy(cp, e.blob)
	return cp, nil
}

// Stat describes a file.
type Stat struct {
	Path   string
	IsBlob bool
	DType  tensor.DType // tensors only
	Shape  []int        // tensors only
	Bytes  int
}

// Stat returns metadata for the file at path.
func (fs *MemFS) Stat(path string) (Stat, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	dir, name, err := fs.lookupPath(path, false)
	if err != nil {
		return Stat{}, err
	}
	e, ok := dir.files[name]
	if !ok {
		return Stat{}, fmt.Errorf("store: %q not found", path)
	}
	if e.t != nil {
		return Stat{Path: path, DType: e.t.DType(), Shape: e.t.Shape(), Bytes: e.t.NumBytes()}, nil
	}
	return Stat{Path: path, IsBlob: true, Bytes: len(e.blob)}, nil
}

// List returns the children of the directory at path ("/" for the root):
// sub-directory names with a trailing slash and file names bare, sorted.
func (fs *MemFS) List(path string) ([]string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n := fs.root
	if trimmed := strings.Trim(path, "/"); trimmed != "" {
		parts := strings.Split(trimmed, "/")
		for _, p := range parts {
			child, ok := n.dirs[p]
			if !ok {
				return nil, fmt.Errorf("store: directory %q not found", path)
			}
			n = child
		}
	}
	var out []string
	for name := range n.dirs {
		out = append(out, name+"/")
	}
	for name := range n.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// Delete removes the file or directory tree at path.
func (fs *MemFS) Delete(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, name, err := fs.lookupPath(path, false)
	if err != nil {
		return err
	}
	if _, ok := dir.files[name]; ok {
		delete(dir.files, name)
		return nil
	}
	if _, ok := dir.dirs[name]; ok {
		delete(dir.dirs, name)
		return nil
	}
	return fmt.Errorf("store: %q not found", path)
}

// Rename atomically moves the file or directory at src to dst,
// replacing whatever dst held: a directory is not merged into an
// existing one. The State Transformer commits a staged model partition
// ("model.next" -> "model") with it once all fetches complete. A
// directory cannot move to itself or below itself
// (errRenameIntoItself); the tree is left as it was.
func (fs *MemFS) Rename(src, dst string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	sDir, sName, err := fs.lookupPath(src, false)
	if err != nil {
		return err
	}
	var moveDir *node
	var moveFile entry
	isFile := false
	if d, ok := sDir.dirs[sName]; ok {
		moveDir = d
	} else if f, ok := sDir.files[sName]; ok {
		moveFile, isFile = f, true
	} else {
		return fmt.Errorf("store: %q not found", src)
	}
	if !isFile && within(dst, src) {
		return fmt.Errorf("store: rename %q to %q: %w", src, dst, errRenameIntoItself)
	}
	dDir, dName, err := fs.lookupPath(dst, true)
	if err != nil {
		return err
	}
	delete(sDir.dirs, sName)
	delete(sDir.files, sName)
	delete(dDir.dirs, dName)
	delete(dDir.files, dName)
	if !isFile {
		dDir.putDir(dName, moveDir)
	} else {
		dDir.putFile(dName, moveFile)
	}
	return nil
}

// errRenameIntoItself is a directory renamed to itself or below itself,
// which would detach it from the tree.
var errRenameIntoItself = errors.New("a directory cannot move into itself")

// within reports whether path names dir or something below it,
// component by component.
func within(path, dir string) bool {
	isSlash := func(r rune) bool { return r == '/' }
	p, d := strings.FieldsFunc(path, isSlash), strings.FieldsFunc(dir, isSlash)
	return len(p) >= len(d) && slices.Equal(p[:len(d)], d)
}

// Walk calls fn for every file under prefix (the whole tree for "/"),
// in sorted path order.
func (fs *MemFS) Walk(prefix string, fn func(path string, st Stat) error) error {
	fs.mu.RLock()
	n := fs.root
	trimmed := strings.Trim(prefix, "/")
	base := ""
	if trimmed != "" {
		for _, p := range strings.Split(trimmed, "/") {
			child, ok := n.dirs[p]
			if !ok {
				fs.mu.RUnlock()
				return fmt.Errorf("store: directory %q not found", prefix)
			}
			n = child
		}
		base = "/" + trimmed
	}
	type item struct {
		n    *node
		path string
	}
	var paths []string
	stats := map[string]Stat{}
	stack := []item{{n, base}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for name, e := range it.n.files {
			p := it.path + "/" + name
			paths = append(paths, p)
			if e.t != nil {
				stats[p] = Stat{Path: p, DType: e.t.DType(), Shape: e.t.Shape(), Bytes: e.t.NumBytes()}
			} else {
				stats[p] = Stat{Path: p, IsBlob: true, Bytes: len(e.blob)}
			}
		}
		for name, d := range it.n.dirs {
			stack = append(stack, item{d, it.path + "/" + name})
		}
	}
	fs.mu.RUnlock()
	sort.Strings(paths)
	for _, p := range paths {
		if err := fn(p, stats[p]); err != nil {
			return err
		}
	}
	return nil
}

// TotalBytes sums the sizes of every file in the tree.
func (fs *MemFS) TotalBytes() int64 {
	var n int64
	_ = fs.Walk("/", func(_ string, st Stat) error {
		n += int64(st.Bytes)
		return nil
	})
	return n
}
