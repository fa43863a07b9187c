package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
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
// fetches must be disjoint, as for the entries of a batch: ranges from
// different sources land concurrently.
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
// assemble tensors from its peers on its own. The transformer probes
// for it and keeps fetching and uploading from its own process when
// absent (Local stores, wrappers that do not forward it).
type Assembler interface {
	Assemble(ctx context.Context, items []AssembleItem) (AssembleStats, error)
}

// Addressable is implemented by Access implementations that other
// stores can reach over the network: Address is the base URL a peer
// passes to its own Client.
type Addressable interface{ Address() string }

// Remote is everything a wire store offers beyond Access: batch reads,
// destination-pull assembly, an address for its peers, and a variant of
// every operation that takes the caller's context. Observe and
// chaos.WrapAccess forward it as one unit over a store that has it
// (*Client), so wrapping a store changes neither the staging route the
// transformer picks nor whether a cancel reaches an in-flight transfer.
type Remote interface {
	Access
	BatchQuerier
	Assembler
	Addressable
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

// assembleWire* form the JSON body of POST /assemble; the reply is an
// AssembleStats document.
type assembleWireFetch struct {
	Src   string `json:"src"` // base URL, or "self"
	Path  string `json:"path"`
	Range string `json:"range,omitempty"`
	At    string `json:"at,omitempty"`
}

type assembleWireItem struct {
	Path  string              `json:"path"`
	DType string              `json:"dtype"`
	Shape []int               `json:"shape"`
	Link  string              `json:"link,omitempty"`
	Fetch []assembleWireFetch `json:"fetch,omitempty"`
}

type assembleWireRequest struct {
	Items []assembleWireItem `json:"items"`
}

const assembleSelf = "self"

func regionString(g tensor.Region) string {
	if g == nil {
		return ""
	}
	return g.String()
}

// Assemble implements Assembler. Building a tensor overwrites whatever
// was staged under its path, so the request is idempotent and runs
// under the retry policy; a peer the store could not reach comes back
// as a 502, which is retryable like any other server-side failure.
func (c *Client) Assemble(ctx context.Context, items []AssembleItem) (AssembleStats, error) {
	wire := assembleWireRequest{Items: make([]assembleWireItem, len(items))}
	for i, it := range items {
		wi := assembleWireItem{Path: it.Path, DType: it.DType.String(), Shape: it.Shape, Link: it.Link,
			Fetch: make([]assembleWireFetch, len(it.Fetch))}
		for j, f := range it.Fetch {
			src := f.Source
			if src == "" {
				src = assembleSelf
			}
			wi.Fetch[j] = assembleWireFetch{Src: src, Path: f.Path, Range: regionString(f.Reg), At: regionString(f.At)}
		}
		wire.Items[i] = wi
	}
	payload, err := json.Marshal(wire)
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

// parseClosedRegion parses a wire region that must stand on its own:
// every bound given and well-formed. The empty string is nil, meaning
// the whole tensor.
func parseClosedRegion(s string) (tensor.Region, error) {
	if s == "" {
		return nil, nil
	}
	reg, err := tensor.ParseRegion(s, nil)
	if err != nil {
		return nil, err
	}
	if len(reg) == 0 {
		return nil, nil
	}
	if len(reg) > maxTensorRank {
		return nil, fmt.Errorf("region of rank %d exceeds limit %d", len(reg), maxTensorRank)
	}
	for _, r := range reg {
		if !r.Valid() {
			return nil, fmt.Errorf("bad range %v in %q", r, s)
		}
	}
	return reg, nil
}

// decodeAssembleRequest parses and validates the body of POST
// /assemble. Everything that can be checked without touching the store
// is checked here, so the handler answers a typed 4xx before it
// allocates or dials anything.
func decodeAssembleRequest(body []byte) ([]AssembleItem, error) {
	var req assembleWireRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, badRequest("bad assemble request: %v", err)
	}
	if len(req.Items) == 0 {
		return nil, badRequest("empty assemble request")
	}
	if len(req.Items) > maxAssembleItems {
		return nil, tooLarge("assemble of %d items exceeds limit %d", len(req.Items), maxAssembleItems)
	}
	sources := map[string]bool{}
	items := make([]AssembleItem, len(req.Items))
	var allocBytes int64
	for i, wi := range req.Items {
		if wi.Path == "" {
			return nil, badRequest("item %d: missing path", i)
		}
		dt, err := tensor.ParseDType(wi.DType)
		if err != nil {
			return nil, badRequest("item %d (%s): %v", i, wi.Path, err)
		}
		total, re := checkedTensorBytes(dt, wi.Shape)
		if re != nil {
			re.msg = fmt.Sprintf("item %d (%s): %s", i, wi.Path, re.msg)
			return nil, re
		}
		it := AssembleItem{Path: wi.Path, DType: dt, Shape: wi.Shape, Link: wi.Link}
		if wi.Link != "" {
			if len(wi.Fetch) > 0 {
				return nil, badRequest("item %d (%s): both link and fetches", i, wi.Path)
			}
			items[i] = it
			continue
		}
		if len(wi.Fetch) == 0 {
			return nil, badRequest("item %d (%s): neither link nor fetches", i, wi.Path)
		}
		if len(wi.Fetch) > maxAssembleFetches {
			return nil, tooLarge("item %d (%s): %d fetches exceed limit %d", i, wi.Path, len(wi.Fetch), maxAssembleFetches)
		}
		if allocBytes += total; allocBytes > maxAssembleBytes {
			return nil, tooLarge("assemble of more than %d bytes in all (reached at item %d)", int64(maxAssembleBytes), i)
		}
		it.Fetch = make([]AssembleFetch, len(wi.Fetch))
		var covered int64
		for j, wf := range wi.Fetch {
			if wf.Path == "" {
				return nil, badRequest("item %d (%s) fetch %d: missing path", i, wi.Path, j)
			}
			f := AssembleFetch{Path: wf.Path}
			if wf.Src != assembleSelf {
				u, err := url.Parse(wf.Src)
				if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
					return nil, badRequest("item %d (%s) fetch %d: source %q is not an http(s) URL", i, wi.Path, j, wf.Src)
				}
				f.Source = wf.Src
				if !sources[wf.Src] {
					if len(sources) == maxAssembleSources {
						return nil, tooLarge("assemble from more than %d sources", maxAssembleSources)
					}
					sources[wf.Src] = true
				}
			}
			if f.Reg, err = parseClosedRegion(wf.Range); err != nil {
				return nil, badRequest("item %d (%s) fetch %d: range: %v", i, wi.Path, j, err)
			}
			if f.At, err = parseClosedRegion(wf.At); err != nil {
				return nil, badRequest("item %d (%s) fetch %d: at: %v", i, wi.Path, j, err)
			}
			n := total
			if f.At != nil {
				if !f.At.Valid(wi.Shape) {
					return nil, badRequest("item %d (%s) fetch %d: at %v out of bounds for shape %v", i, wi.Path, j, f.At, wi.Shape)
				}
				n = f.At.NumBytes(dt)
			}
			if f.Reg != nil && f.Reg.NumBytes(dt) != n {
				return nil, badRequest("item %d (%s) fetch %d: range %v does not fill target %v", i, wi.Path, j, f.Reg, f.At)
			}
			covered += n
			it.Fetch[j] = f
		}
		if covered < total {
			return nil, badRequest("item %d (%s): fetches cover %d of %d bytes", i, wi.Path, covered, total)
		}
		items[i] = it
	}
	return items, nil
}

func (s *Server) handleAssemble(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "assemble is POST")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxAssembleRequestBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge, "assemble request exceeds %d bytes", mbe.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	items, err := decodeAssembleRequest(body)
	if err == nil {
		var st AssembleStats
		if st, err = s.assemble(r.Context(), items); err == nil {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(st)
			return
		}
	}
	var re *requestError
	switch {
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
// is stored.
func (s *Server) assemble(ctx context.Context, items []AssembleItem) (AssembleStats, error) {
	var st AssembleStats
	staged := make([]*tensor.Tensor, len(items))
	pulls := map[string][]BatchEntry{} // by source address
	for i, it := range items {
		if it.Link != "" {
			t, err := s.FS.GetTensor(it.Link)
			if err != nil {
				return st, &requestError{code: http.StatusNotFound, msg: fmt.Sprintf("item %d (%s): link: %v", i, it.Path, err)}
			}
			if t.DType() != it.DType || !tensor.ShapeEqual(t.Shape(), it.Shape) {
				return st, &requestError{code: http.StatusConflict, msg: fmt.Sprintf("item %d (%s): link %s holds %v, want %s %v",
					i, it.Path, it.Link, t, it.DType, it.Shape)}
			}
			staged[i] = t
			st.LinkedBytes += int64(t.NumBytes())
			continue
		}
		t := tensor.New(it.DType, it.Shape...)
		staged[i] = t
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
	for i, it := range items {
		if err := s.FS.PutTensor(it.Path, staged[i]); err != nil {
			return st, badRequest("item %d: %v", i, err)
		}
	}
	return st, nil
}
