package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"slices"
	"sync"

	"tenplex/internal/tensor"
)

// Destination-pull assembly. One POST /assemble asks a store to build
// new tensors itself: for every tensor the request lists the ranges to
// fetch and where they land, and the store pulls each range straight
// from the peer store that holds it (one CRC-framed /batch per peer,
// all peers concurrently), copies the ranges it holds itself, and keeps
// the results by reference. A reconfiguration's state thus crosses the
// wire once, source store to destination store, instead of travelling
// through the coordinator's process and back out as uploads (§5.1: one
// State Transformer per worker, fetching from peer Tensor Stores).
//
// The request body, in the pieces tensor/frame.go defines (the reply is
// an AssembleStats document in JSON):
//
//	request header, kind RequestAssemble
//	sources  uint16  distinct peer stores, at most maxAssembleSources
//	source, sources times
//	  address string  base URL, http or https
//	items    uint32  1..maxAssembleItems
//	item, items times
//	  path    string  where the tensor goes
//	  dtype   uint8
//	  rank    uint8
//	  shape   rank × uint64
//	  link    string  a stored tensor to keep by reference; empty: none
//	  fetches uint32  0 with a link, else 1..maxAssembleFetches
//	  fetch, fetches times
//	    source uint16  0: this store; k: the k-th source of the table
//	    path   string  the tensor on that store
//	    range  region  of it; rank 0: all
//	    at     region  of the new tensor; rank 0: all
//
// Fetches name their source by index, so an address is parsed and
// checked once per request, not once per range. A request has one
// encoding: the table lists each source once, in the order the fetches
// first use them, and none that no fetch uses — which is what lets a
// test demand that whatever decodes re-encodes to the same bytes.

// AssembleFetch is one range of a tensor being assembled: read Reg (nil
// for the whole stored tensor) of the tensor at Path on the store at
// Source into the sub-region At (nil for all) of the new tensor.
type AssembleFetch struct {
	// Source is the base URL of the store that holds the range; empty
	// means the assembling store itself.
	Source string
	Path   string
	Reg    tensor.Region
	At     tensor.Region
}

// AssembleItem is one tensor to build at Path. Either Link names a
// tensor the store already holds, which is then stored at Path by
// reference (no bytes move), or Fetch lists the ranges that fill a
// fresh tensor of the given dtype and shape. The targets of an item's
// fetches must tile the tensor: disjoint, as for the entries of a batch
// (ranges from different sources land concurrently), and together all
// of it. The store refuses targets that overlap or leave a hole.
type AssembleItem struct {
	Path  string
	DType tensor.DType
	Shape []int
	Link  string
	Fetch []AssembleFetch
}

// AssembleStats is the assembling store's account of one request.
type AssembleStats struct {
	// BytesCopied counts payload bytes scatter-written into new tensors,
	// whether pulled from peers or copied from the store itself.
	BytesCopied int64 `json:"copied"`
	// AllocBytes counts the buffer bytes of the tensors allocated.
	AllocBytes int64 `json:"alloc"`
	// LinkedBytes counts the bytes of tensors stored by reference.
	LinkedBytes int64 `json:"linked"`
}

// Assembler is implemented by Access implementations whose store can
// assemble tensors from its peers on its own. In the transformer's
// apply, every assignment such a destination can pull (each range on a
// store with an Address) is one item of that destination's single
// request, which its worker sends before building the destination's
// other assignments in its own process; a destination without the
// capability (a Local store, a wrapper that does not forward it) has
// all of them built there.
type Assembler interface {
	Assemble(ctx context.Context, items []AssembleItem) (AssembleStats, error)
}

// Addressable is implemented by Access implementations that other
// stores can reach over the network: Address is the base URL a peer
// passes to its own Client.
type Addressable interface{ Address() string }

// Remote is everything a wire store offers beyond Access: batch reads,
// batch uploads, destination-pull assembly, an address for its peers,
// and a variant of every operation that takes the caller's context.
// Wrap forwards it as one unit over a store that has it (*Client), so
// wrapping a store — tracing it with Observe, arming it with
// chaos.WrapAccess — changes neither the staging route the transformer
// picks nor whether a cancel reaches an in-flight transfer.
type Remote interface {
	Access
	BatchQuerier
	BatchUploader
	Assembler
	Addressable
	ContextAccess
}

// ContextAccess is Access with the caller's context on every operation;
// WithContext gives any Access this method set.
type ContextAccess interface {
	QueryContext(ctx context.Context, path string, reg tensor.Region) (*tensor.Tensor, error)
	QueryIntoContext(ctx context.Context, path string, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (int64, error)
	UploadContext(ctx context.Context, path string, t *tensor.Tensor) error
	UploadFromContext(ctx context.Context, path string, dt tensor.DType, shape []int, r io.Reader) error
	DeleteContext(ctx context.Context, path string) error
	ListContext(ctx context.Context, path string) ([]string, error)
	RenameContext(ctx context.Context, src, dst string) error
}

var _ Remote = (*Client)(nil)

// Address implements Addressable.
func (c *Client) Address() string { return c.Base }

// Assemble implements Assembler. Building a tensor overwrites whatever
// was staged under its path, so the request is idempotent and runs
// under the retry policy; a peer the store could not reach comes back
// as a 502, which is retryable like any other server-side failure.
func (c *Client) Assemble(ctx context.Context, items []AssembleItem) (AssembleStats, error) {
	payload, err := encodeAssembleRequest(items)
	if err != nil {
		return AssembleStats{}, fmt.Errorf("store client: assemble: %w", err)
	}
	var st AssembleStats
	err = c.withRetry(ctx, "assemble", func() error {
		resp, cancel, err := c.doStream(ctx, http.MethodPost, "/assemble", url.Values{},
			bytes.NewReader(payload), int64(len(payload)))
		if err != nil {
			return err
		}
		defer cancel()
		defer drainAndClose(resp.Body)
		st = AssembleStats{}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return fmt.Errorf("store client: assemble: bad reply: %w", err)
		}
		return nil
	})
	return st, err
}

// encodeAssembleRequest builds the body of POST /assemble straight from
// the items: one pass numbers the distinct sources in order of first
// use, one appends.
func encodeAssembleRequest(items []AssembleItem) ([]byte, error) {
	index := map[string]uint16{} // source address -> its place in the table, from 1
	var sources []string
	fetches := 0
	for _, it := range items {
		fetches += len(it.Fetch)
		for _, f := range it.Fetch {
			if _, ok := index[f.Source]; ok || f.Source == "" {
				continue
			}
			if len(sources) == math.MaxUint16 {
				return nil, fmt.Errorf("more than %d sources", math.MaxUint16)
			}
			sources = append(sources, f.Source)
			index[f.Source] = uint16(len(sources))
		}
	}
	buf := make([]byte, 0, 16+requestBytesPerEntry*(len(sources)+len(items)+fetches))
	buf = tensor.AppendRequestHeader(buf, tensor.RequestAssemble)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(sources)))
	for _, src := range sources {
		buf = tensor.AppendString(buf, src)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(items)))
	for _, it := range items {
		if len(it.Shape) > maxTensorRank {
			return nil, fmt.Errorf("%s: rank %d exceeds limit %d", it.Path, len(it.Shape), maxTensorRank)
		}
		buf = tensor.AppendString(buf, it.Path)
		buf = append(buf, uint8(it.DType), uint8(len(it.Shape)))
		for _, d := range it.Shape {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(d))
		}
		buf = tensor.AppendString(buf, it.Link)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(it.Fetch)))
		for _, f := range it.Fetch {
			buf = binary.LittleEndian.AppendUint16(buf, index[f.Source]) // "" is absent: 0, this store
			buf = tensor.AppendString(buf, f.Path)
			buf = tensor.AppendRegion(tensor.AppendRegion(buf, f.Reg), f.At)
		}
	}
	return buf, nil
}

// Limits of one /assemble request. The body and item caps match /batch;
// maxTensorBytes also bounds what a chunked /upload may declare. All are
// far above what a reconfiguration plan asks of one store.
const (
	maxAssembleRequestBytes = 16 << 20
	maxAssembleItems        = 1 << 16
	maxAssembleFetches      = 1 << 12 // per item
	maxAssembleSources      = 256     // distinct peers; each is pulled by its own goroutine
	maxTensorBytes          = 4 << 30
	// maxAssembleBytes bounds what one request may have the store
	// allocate in all: every tensor is allocated before the first peer
	// is dialed, so the per-tensor cap alone would let a small body ask
	// for items x 4 GiB.
	maxAssembleBytes = 16 * maxTensorBytes
	maxTensorRank    = 16 // tensor's wire format and region iterators stop here too

	// peerPullAttempts is the attempt budget of one peer batch, as
	// tenplex-coordd configures its own store clients.
	peerPullAttempts = 3
)

// requestError is a request the server refuses with a 4xx before doing
// any work on it.
type requestError struct {
	code int
	msg  string
}

func (e *requestError) Error() string { return e.msg }

func badRequest(format string, args ...any) *requestError {
	return &requestError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func tooLarge(format string, args ...any) *requestError {
	return &requestError{code: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf(format, args...)}
}

// checkedTensorBytes returns the byte size of a tensor of the declared
// dtype and shape, refusing shapes that are malformed or larger than
// maxTensorBytes. The declaration is untrusted: this runs before any
// allocation sized from it.
func checkedTensorBytes(dt tensor.DType, shape []int) (int64, *requestError) {
	if len(shape) > maxTensorRank {
		return 0, badRequest("rank %d exceeds limit %d", len(shape), maxTensorRank)
	}
	n := int64(dt.Size())
	for _, d := range shape {
		if d <= 0 {
			return 0, badRequest("non-positive dimension in shape %v", shape)
		}
		if n > maxTensorBytes/int64(d) {
			return 0, tooLarge("tensor of shape %v exceeds limit of %d bytes", shape, int64(maxTensorBytes))
		}
		n *= int64(d)
	}
	return n, nil
}

// decodeAssembleRequest reads and validates the body of POST /assemble.
// Everything that can be checked without touching the store is checked
// here, as the fields arrive, so the handler answers a typed 4xx before
// it allocates a tensor or dials anything; and what the decoder itself
// allocates (items, and one arena each for fetches, ranges and shapes)
// grows with the bytes that have arrived, never with a count declared.
func decodeAssembleRequest(d *tensor.RequestReader) ([]AssembleItem, *requestError) {
	d.Header(tensor.RequestAssemble)
	ns := int(d.Uint16())
	if err := d.Err(); err != nil {
		return nil, decodeFailure("assemble", err)
	}
	if ns > maxAssembleSources {
		return nil, tooLarge("assemble from more than %d sources", maxAssembleSources)
	}
	sources := make([]string, 0, ns)
	for k := 0; k < ns; k++ {
		src := d.String(maxPathBytes)
		if err := d.Err(); err != nil {
			return nil, decodeFailure("assemble", fmt.Errorf("source %d: %w", k, err))
		}
		u, err := url.Parse(src)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, badRequest("source %d: %q is not an http(s) URL", k, src)
		}
		if slices.Contains(sources, src) {
			return nil, badRequest("source %d: %q listed twice", k, src)
		}
		sources = append(sources, src)
	}
	n := int(d.Uint32())
	if err := d.Err(); err != nil {
		return nil, decodeFailure("assemble", err)
	}
	if n == 0 {
		return nil, badRequest("empty assemble request")
	}
	if n > maxAssembleItems {
		return nil, tooLarge("assemble of %d items exceeds limit %d", n, maxAssembleItems)
	}
	var (
		items      = make([]AssembleItem, 0, min(n, decodeChunk))
		fetches    []AssembleFetch
		ranges     []tensor.Range
		dims       []int
		used       int // sources the fetches so far have named: the table is in that order
		allocBytes int64
	)
	for i := 0; i < n; i++ {
		it := AssembleItem{Path: d.String(maxPathBytes), DType: tensor.DType(d.Uint8())}
		rank := int(d.Uint8())
		if rank > maxTensorRank && d.Err() == nil {
			return nil, badRequest("item %d (%s): rank %d exceeds limit %d", i, it.Path, rank, maxTensorRank)
		}
		first := len(dims)
		for j := 0; j < rank; j++ {
			dims = append(dims, int(d.Uint64())) // past MaxInt64 reads as negative, and is refused as that
		}
		it.Shape = dims[first:len(dims):len(dims)]
		it.Link = d.String(maxPathBytes)
		nf := int(d.Uint32())
		if err := d.Err(); err != nil {
			return nil, decodeFailure("assemble", fmt.Errorf("item %d: %w", i, err))
		}
		if it.Path == "" {
			return nil, badRequest("item %d: missing path", i)
		}
		if !it.DType.Valid() {
			return nil, badRequest("item %d (%s): invalid dtype %d", i, it.Path, it.DType)
		}
		total, re := checkedTensorBytes(it.DType, it.Shape)
		if re != nil {
			re.msg = fmt.Sprintf("item %d (%s): %s", i, it.Path, re.msg)
			return nil, re
		}
		if it.Link != "" {
			if nf > 0 {
				return nil, badRequest("item %d (%s): both link and fetches", i, it.Path)
			}
			items = append(items, it)
			continue
		}
		if nf == 0 {
			return nil, badRequest("item %d (%s): neither link nor fetches", i, it.Path)
		}
		if nf > maxAssembleFetches {
			return nil, tooLarge("item %d (%s): %d fetches exceed limit %d", i, it.Path, nf, maxAssembleFetches)
		}
		if allocBytes += total; allocBytes > maxAssembleBytes {
			return nil, tooLarge("assemble of more than %d bytes in all (reached at item %d)", int64(maxAssembleBytes), i)
		}
		first = len(fetches)
		var covered int64
		for j := 0; j < nf; j++ {
			k := int(d.Uint16())
			f := AssembleFetch{Path: d.String(maxPathBytes), Reg: d.Region(&ranges), At: d.Region(&ranges)}
			if err := d.Err(); err != nil {
				return nil, decodeFailure("assemble", fmt.Errorf("item %d fetch %d: %w", i, j, err))
			}
			switch {
			case k == 0: // this store
			case k <= used:
				f.Source = sources[k-1]
			case k == used+1 && k <= len(sources):
				f.Source = sources[k-1]
				used++
			default:
				return nil, badRequest("item %d (%s) fetch %d: source %d of %d, after %d in use: sources are numbered in order of first use",
					i, it.Path, j, k, len(sources), used)
			}
			if f.Path == "" {
				return nil, badRequest("item %d (%s) fetch %d: missing path", i, it.Path, j)
			}
			n := total
			if f.At != nil {
				if !f.At.Valid(it.Shape) {
					return nil, badRequest("item %d (%s) fetch %d: at %v out of bounds for shape %v", i, it.Path, j, f.At, it.Shape)
				}
				n = f.At.NumBytes(it.DType)
			}
			if f.Reg != nil && !fills(f.Reg, f.At, it.Shape) {
				return nil, badRequest("item %d (%s) fetch %d: range %v does not fill target %v", i, it.Path, j, f.Reg, f.At)
			}
			covered += n
			fetches = append(fetches, f)
		}
		it.Fetch = fetches[first:len(fetches):len(fetches)]
		if covered < total {
			return nil, badRequest("item %d (%s): fetches cover %d of %d bytes", i, it.Path, covered, total)
		}
		if covered > total {
			return nil, badRequest("item %d (%s): fetches write %d bytes into %d: targets overlap", i, it.Path, covered, total)
		}
		if overlap, _ := tiles(it); overlap {
			return nil, badRequest("item %d (%s): fetch targets overlap", i, it.Path)
		}
		items = append(items, it)
	}
	if d.End(); d.Err() != nil {
		return nil, decodeFailure("assemble", d.Err())
	}
	if used < len(sources) {
		return nil, badRequest("%d of %d sources are used by no fetch", len(sources)-used, len(sources))
	}
	return items, nil
}

// fills reports whether a source range has the shape of its target: the
// region at of a tensor of the given shape, all of it when at is nil.
// Comparing dimension by dimension multiplies nothing untrusted.
func fills(reg, at tensor.Region, shape []int) bool {
	if at != nil {
		return reg.SameShape(at)
	}
	if len(reg) != len(shape) {
		return false
	}
	for i, r := range reg {
		if r.Len() != shape[i] {
			return false
		}
	}
	return true
}

// pairsPerTarget bounds the work tiles does on an item: the target
// pairs it compares, per target and per dimension it sweeps. A plan's
// targets cut a tensor into a grid, which a sweep along a dimension the
// grid cuts many times settles in a few pairs per target; the bound
// keeps a request that names thousands of targets in one slab from
// costing the square of that.
const pairsPerTarget = 32

// tiles tells whether the fetch targets of item it are pairwise
// disjoint: overlap when two of them share an element, proven when none
// do. Both false means the bounded sweep could not tell. Targets that
// are disjoint and add up to the tensor's bytes cover all of it, which
// is what lets a recycled buffer be filled without being cleared.
//
// It sweeps one dimension at a time: targets in order of where they
// start along it, each compared with the earlier ones that have not
// ended by then. A dimension whose sweep runs out of its budget of
// comparisons leaves the question to the next; the answer does not
// depend on which dimension gives it.
func tiles(it AssembleItem) (overlap, proven bool) {
	n := len(it.Fetch)
	if n < 2 {
		return false, true
	}
	// Small items, which are nearly all, sort on the stack.
	var stack [2 * 32]int32
	order, active := stack[:0:32], stack[32:32]
	if n > 32 {
		order, active = make([]int32, 0, n), make([]int32, 0, n)
	}
	bounds := func(k int32, d int) (lo, hi int) {
		if at := it.Fetch[k].At; at != nil {
			return at[d].Lo, at[d].Hi
		}
		return 0, it.Shape[d]
	}
	meet := func(a, b int32) bool {
		for d := range it.Shape {
			alo, ahi := bounds(a, d)
			blo, bhi := bounds(b, d)
			if max(alo, blo) >= min(ahi, bhi) {
				return false
			}
		}
		return true
	}
	for d := range it.Shape {
		order = order[:0]
		for k := range int32(n) {
			order = append(order, k)
		}
		slices.SortFunc(order, func(a, b int32) int {
			alo, _ := bounds(a, d)
			blo, _ := bounds(b, d)
			return alo - blo
		})
		budget := pairsPerTarget * n
		active = active[:0]
		for _, k := range order {
			lo, _ := bounds(k, d)
			if budget -= len(active); budget < 0 {
				break
			}
			kept := active[:0]
			for _, j := range active {
				if _, hi := bounds(j, d); hi > lo {
					kept = append(kept, j)
				}
			}
			active = kept
			for _, j := range active {
				if meet(j, k) {
					return true, false
				}
			}
			active = append(active, k)
		}
		if budget >= 0 {
			return false, true
		}
	}
	return false, false
}

func (s *Server) handleAssemble(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "assemble is POST")
		return
	}
	body, release := boundedBody(w, r, maxAssembleRequestBytes)
	items, re := decodeAssembleRequest(body)
	release()
	if re != nil {
		httpError(w, re.code, "%s", re.msg)
		return
	}
	st, err := s.assemble(r.Context(), items)
	switch {
	case err == nil:
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st)
	case errors.As(err, &re):
		httpError(w, re.code, "%s", re.msg)
	case retryable(err):
		// A peer that did not answer (or died mid-stream) may be back on
		// the next try; anything else a peer said is final.
		httpError(w, http.StatusBadGateway, "%v", err)
	default:
		httpError(w, http.StatusFailedDependency, "%v", err)
	}
}

// assemble builds the requested tensors and, only when every one of
// them is complete, stores them. The pulls are bound to ctx — the
// request's context — so a caller that gives up stops them, and nothing
// is stored: the buffers that were to hold them go back to the store.
func (s *Server) assemble(ctx context.Context, items []AssembleItem) (AssembleStats, error) {
	var st AssembleStats
	files := make([]fileAt, len(items))
	handed := false // putAll has the buffers: stored, or released
	defer func() {
		if handed {
			return
		}
		for _, f := range files {
			if f.e.own != nil {
				s.FS.release(f.e.own)
			}
		}
	}()
	pulls := map[string][]BatchEntry{} // by source address
	for i, it := range items {
		if it.Link != "" {
			t, err := s.FS.GetTensor(it.Link)
			if err != nil {
				return st, &requestError{code: http.StatusNotFound, msg: fmt.Sprintf("item %d (%s): link: %v", i, it.Path, err)}
			}
			if t.DType() != it.DType || !t.HasShape(it.Shape) {
				return st, &requestError{code: http.StatusConflict, msg: fmt.Sprintf("item %d (%s): link %s holds %v, want %s %v",
					i, it.Path, it.Link, t, it.DType, it.Shape)}
			}
			files[i] = fileAt{path: it.Path, e: entry{t: t}}
			st.LinkedBytes += int64(t.NumBytes())
			continue
		}
		// The fetches overwrite every byte of the tensor when their
		// targets are shown to tile it; a recycled buffer they might not
		// fill is cleared, so no byte of what it held before shows.
		o, recycled := s.FS.alloc(it.DType, it.Shape)
		if recycled {
			if _, proven := tiles(it); !proven {
				clear(o.t.Data())
			}
		}
		t := o.t
		files[i] = fileAt{path: it.Path, e: entry{t: t, own: o}}
		st.AllocBytes += int64(t.NumBytes())
		for _, f := range it.Fetch {
			if f.Source != "" {
				pulls[f.Source] = append(pulls[f.Source], BatchEntry{Path: f.Path, Reg: f.Reg, Dst: t, At: f.At})
				continue
			}
			n, err := s.FS.ReadRegionInto(f.Path, f.Reg, t, f.At)
			if err != nil {
				return st, &requestError{code: http.StatusNotFound, msg: fmt.Sprintf("item %d (%s): %v", i, it.Path, err)}
			}
			st.BytesCopied += n
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		pulled  int64
		pullErr error
	)
	for src, entries := range pulls {
		wg.Add(1)
		go func(src string, entries []BatchEntry) {
			defer wg.Done()
			// Connections are pooled by the shared default transport, so a
			// client per pull costs nothing a cached one would save.
			peer := &Client{Base: src, Retry: &RetryPolicy{MaxAttempts: peerPullAttempts}}
			bs, err := peer.BatchQueryInto(ctx, entries)
			s.bytesPulled.Add(bs.Bytes)
			mu.Lock()
			defer mu.Unlock()
			pulled += bs.Bytes
			if err != nil && pullErr == nil {
				pullErr = fmt.Errorf("pull from %s: %w", src, err)
				cancel() // the request is lost; stop the other pulls
			}
		}(src, entries)
	}
	wg.Wait()
	if pullErr != nil {
		return st, pullErr
	}
	if err := ctx.Err(); err != nil {
		return st, err
	}
	st.BytesCopied += pulled
	handed = true
	if err := s.FS.putAll(files); err != nil {
		return st, badRequest("%v", err)
	}
	return st, nil
}
