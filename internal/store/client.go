package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"tenplex/internal/obs"
	"tenplex/internal/tensor"
)

// Access is the interface shared by local (in-process) and remote (REST)
// Tensor Stores. The State Transformer operates through it, so a plan
// executes identically whether sub-tensors live on this worker or
// another.
//
// The streaming pair QueryInto/UploadFrom is the zero-copy data path:
// range reads land directly in a caller-owned destination buffer at
// their final strided offsets, and uploads stream from any io.Reader
// without materializing an intermediate tensor. Query and Upload remain
// as whole-tensor conveniences layered on the same machinery.
type Access interface {
	// Query returns the tensor at path, optionally sliced to reg (nil
	// for the whole tensor).
	Query(path string, reg tensor.Region) (*tensor.Tensor, error)
	// QueryInto copies the range reg (nil for the whole tensor) of the
	// tensor at path directly into the sub-region at of dst (nil for
	// all of dst). The two region shapes must match, as must dtypes. It
	// returns the payload bytes written into dst; for an in-process
	// store that is one copy, for a remote store the bytes go from the
	// response stream straight into dst's buffer.
	QueryInto(path string, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (int64, error)
	// Upload stores t at path.
	Upload(path string, t *tensor.Tensor) error
	// UploadFrom stores a tensor of the given dtype and shape at path,
	// streaming its row-major payload from r (exactly
	// tensor.ShapeNumBytes(dt, shape) bytes) without buffering the
	// whole body.
	UploadFrom(path string, dt tensor.DType, shape []int, r io.Reader) error
	// Delete removes the file or tree at path.
	Delete(path string) error
	// List returns directory children.
	List(path string) ([]string, error)
	// Rename atomically moves a file or tree, replacing the target: a
	// tree is not merged into the one it overwrites, so nothing only the
	// old target held survives. The transformer's commit relies on
	// exactly that: one Rename of the staged tree over the live one is
	// the whole swap, and the device is never without a model tree. A
	// tree cannot move to itself or below itself.
	Rename(src, dst string) error
}

// RefUploader is implemented by Access implementations whose Upload
// retains the tensor by reference instead of copying its bytes
// (in-process MemFS-backed stores). The transformer uses it to account
// copy amplification precisely.
type RefUploader interface{ UploadsByReference() bool }

// Local adapts a MemFS to the Access interface.
type Local struct{ FS *MemFS }

// Query implements Access.
func (l Local) Query(path string, reg tensor.Region) (*tensor.Tensor, error) {
	if reg == nil {
		return l.FS.GetTensor(path)
	}
	return l.FS.GetSlice(path, reg)
}

// QueryInto implements Access: a single strided copy from the stored
// tensor's buffer into dst.
func (l Local) QueryInto(path string, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (int64, error) {
	return l.FS.ReadRegionInto(path, reg, dst, at)
}

// Upload implements Access.
func (l Local) Upload(path string, t *tensor.Tensor) error { return l.FS.PutTensor(path, t) }

// UploadFrom implements Access: the payload streams directly into the
// freshly allocated tensor's buffer.
func (l Local) UploadFrom(path string, dt tensor.DType, shape []int, r io.Reader) error {
	return l.FS.PutTensorFrom(path, dt, shape, r)
}

// UploadsByReference implements RefUploader: Local stores the uploaded
// tensor pointer without copying its bytes.
func (l Local) UploadsByReference() bool { return true }

// Delete implements Access.
func (l Local) Delete(path string) error { return l.FS.Delete(path) }

// List implements Access.
func (l Local) List(path string) ([]string, error) { return l.FS.List(path) }

// Rename implements Access.
func (l Local) Rename(src, dst string) error { return l.FS.Rename(src, dst) }

// PutBlob stores raw bytes; it mirrors Client.PutBlob so blob users can
// hold either through the Access interface.
func (l Local) PutBlob(path string, data []byte) error { return l.FS.PutBlob(path, data) }

// GetBlob fetches raw bytes; it mirrors Client.GetBlob.
func (l Local) GetBlob(path string) ([]byte, error) { return l.FS.GetBlob(path) }

// DefaultTimeout bounds every Client request when neither
// Client.Timeout nor a caller context supplies a tighter deadline. It
// covers the whole transfer (connection + body), so it is sized for
// bulk sub-tensor movement, not just round trips; callers streaming
// very large state over slow links should raise Timeout or set it
// negative and bound requests with their own contexts.
const DefaultTimeout = 5 * time.Minute

// Client talks to a remote Tensor Store server. Query and Upload
// stream: response payloads decode incrementally into a single
// destination allocation, and upload bodies read straight out of the
// tensor's backing buffer, so no whole-body intermediate copy exists on
// either side of the wire.
type Client struct {
	// Base is the server address, e.g. "http://10.0.0.2:7070".
	Base string
	// HTTP is the client to use; http.DefaultClient when nil.
	HTTP *http.Client
	// Timeout bounds each request (connection + transfer). Zero means
	// DefaultTimeout; negative disables the bound.
	Timeout time.Duration
	// Retry, when non-nil, retries idempotent operations (queries,
	// full-overwrite uploads, listings, blob I/O) with capped
	// exponential backoff and jitter; an exhausted budget surfaces as
	// *RetryExhaustedError. Nil keeps every operation single-attempt.
	Retry *RetryPolicy
	// Stats counts attempts, retries, and exhaustions.
	Stats ClientStats
	// Metrics, when non-nil, mirrors every Stats increment into the
	// shared observability registry (store.client.attempts, .retries,
	// .exhausted), so client behavior shows up next to
	// coordinator and transformer metrics instead of in a bespoke
	// struct. Nil costs nothing.
	Metrics *obs.Registry

	rngMu sync.Mutex
	rng   *rand.Rand
}

// drainLimit caps how many unread trailing bytes drainAndClose swallows
// to keep a connection reusable; larger remainders are abandoned
// (closing the connection is cheaper than downloading them).
const drainLimit = 1 << 20

// drainAndClose reads the response body to EOF before closing it. The
// HTTP transport only returns a connection to the keep-alive pool once
// its body has been consumed to EOF; closing early tears the connection
// down and the next request pays a fresh dial. The streaming decoders
// read exactly the payload bytes and never observe EOF themselves, so
// every response here must drain explicitly.
func drainAndClose(body io.ReadCloser) error {
	io.Copy(io.Discard, io.LimitReader(body, drainLimit)) //nolint:errcheck // best-effort drain
	return body.Close()
}

var _ Access = (*Client)(nil)
var _ Access = Local{}

// defaultHTTPClient backs Clients that do not supply their own
// http.Client. The stock transport keeps only two idle connections per
// host, but transformer staging fans out dozens of concurrent requests
// per store — under that load most connections would be discarded after
// one use and every follow-up request pays a fresh dial. Keeping a
// deeper idle pool makes keep-alive actually hold at staging
// concurrency.
var defaultHTTPClient = &http.Client{Transport: defaultTransport()}

// transportReadBufferSize is each connection's read buffer. Through
// net/http's 4 KiB a frame stream of small tensors comes back from the
// kernel 4 KiB at a time. (The write buffer stays at 4 KiB: request
// bodies are a few KiB, and an upload's chunks, larger than it, go
// straight to the socket where a big buffer would copy them first.)
const transportReadBufferSize = 256 << 10

func defaultTransport() http.RoundTripper {
	t, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return http.DefaultTransport
	}
	t = t.Clone()
	t.MaxIdleConns = 0 // no global cap; the per-host limit governs
	t.MaxIdleConnsPerHost = 64
	t.ReadBufferSize = transportReadBufferSize
	return t
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTPClient
}

// reqContext applies the configured timeout to ctx; the returned cancel
// must run once the response body is fully consumed.
func (c *Client) reqContext(ctx context.Context) (context.Context, context.CancelFunc) {
	d := c.Timeout
	if d == 0 {
		d = DefaultTimeout
	}
	if d < 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// doStream issues the request and returns the 2xx response with its
// body still open; the caller must Close it and then call cancel.
// contentLength < 0 leaves the transfer chunked.
func (c *Client) doStream(ctx context.Context, method, endpoint string, params url.Values,
	body io.Reader, contentLength int64) (*http.Response, context.CancelFunc, error) {
	rctx, cancel := c.reqContext(ctx)
	u := fmt.Sprintf("%s%s?%s", c.Base, endpoint, params.Encode())
	req, err := http.NewRequestWithContext(rctx, method, u, body)
	if err != nil {
		cancel()
		return nil, nil, fmt.Errorf("store client: %w", err)
	}
	if contentLength >= 0 {
		req.ContentLength = contentLength
	}
	if ub, ok := body.(*uploadBody); ok && ub.replays {
		// net/http rewinds such a body itself when a pooled connection
		// turns out to have been closed under it.
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(ub.fresh()), nil }
	}
	resp, err := c.http().Do(req)
	if err != nil {
		cancel()
		return nil, nil, &transportError{method: method, endpoint: endpoint, err: err}
	}
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		cancel()
		return nil, nil, &statusError{method: method, endpoint: endpoint,
			code: resp.StatusCode, status: resp.Status, body: trimStatus(data)}
	}
	return resp, cancel, nil
}

func (c *Client) do(ctx context.Context, method, endpoint string, params url.Values, body io.Reader) ([]byte, error) {
	resp, cancel, err := c.doStream(ctx, method, endpoint, params, body, -1)
	if err != nil {
		return nil, err
	}
	defer cancel()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("store client: read response: %w", err)
	}
	return data, nil
}

// Query implements Access. A nil region fetches the whole tensor; a
// non-nil region is sent as a range attribute so only those bytes cross
// the network.
func (c *Client) Query(path string, reg tensor.Region) (*tensor.Tensor, error) {
	return c.QueryContext(context.Background(), path, reg)
}

// QueryContext is Query under a caller-supplied context; the payload
// decodes incrementally off the response stream into one allocation.
// Range queries are idempotent, so the request runs under the client's
// retry policy.
func (c *Client) QueryContext(ctx context.Context, path string, reg tensor.Region) (*tensor.Tensor, error) {
	params := url.Values{"path": {path}}
	if reg != nil {
		params.Set("range", reg.String())
	}
	var t *tensor.Tensor
	err := c.withRetry(ctx, "query "+path, func() error {
		resp, cancel, err := c.doStream(ctx, http.MethodGet, "/query", params, nil, -1)
		if err != nil {
			return err
		}
		defer cancel()
		defer drainAndClose(resp.Body)
		t, err = tensor.DecodeFrom(resp.Body)
		if err != nil {
			return fmt.Errorf("store client: query %s: %w", path, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// QueryInto implements Access: the response payload scatter-writes
// straight from the socket into dst's buffer at its final strided
// offsets — no intermediate tensor on the client side.
func (c *Client) QueryInto(path string, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (int64, error) {
	return c.QueryIntoContext(context.Background(), path, reg, dst, at)
}

// QueryIntoContext is QueryInto under a caller-supplied context. The
// scatter into dst is idempotent (same region, same bytes), so a
// failed attempt — even one that died mid-write — is safely re-run
// under the retry policy.
func (c *Client) QueryIntoContext(ctx context.Context, path string, reg tensor.Region,
	dst *tensor.Tensor, at tensor.Region) (int64, error) {
	if at == nil {
		at = tensor.FullRegion(dst.Shape())
	}
	params := url.Values{"path": {path}}
	if reg != nil {
		params.Set("range", reg.String())
	}
	var n int64
	err := c.withRetry(ctx, "query "+path, func() error {
		resp, cancel, err := c.doStream(ctx, http.MethodGet, "/query", params, nil, -1)
		if err != nil {
			return err
		}
		defer cancel()
		defer drainAndClose(resp.Body)
		dt, shape, err := tensor.DecodeHeaderFrom(resp.Body)
		if err != nil {
			return fmt.Errorf("store client: query %s: %w", path, err)
		}
		if dt != dst.DType() {
			return fmt.Errorf("store client: query %s: dtype %s != destination %s", path, dt, dst.DType())
		}
		if !tensor.ShapeEqual(shape, at.Shape()) {
			return fmt.Errorf("store client: query %s: payload shape %v != destination region %v", path, shape, at)
		}
		n, err = dst.WriteRegion(at, resp.Body)
		if err != nil {
			return fmt.Errorf("store client: query %s: %w", path, err)
		}
		return nil
	})
	return n, err
}

// Upload implements Access. The request body streams the wire header
// followed by the tensor's backing bytes; nothing is re-encoded into an
// intermediate buffer.
func (c *Client) Upload(path string, t *tensor.Tensor) error {
	return c.UploadContext(context.Background(), path, t)
}

// UploadContext is Upload under a caller-supplied context. A full
// tensor overwrite is idempotent and its body replays from the
// tensor's backing buffer, so the request runs under the retry policy.
func (c *Client) UploadContext(ctx context.Context, path string, t *tensor.Tensor) error {
	header := tensor.EncodeHeader(t.DType(), t.Shape())
	body := singleUpload(header, func() io.Reader { return bytes.NewReader(t.Data()) }, true)
	return c.withRetry(ctx, "upload "+path, func() error {
		return c.sendUpload(ctx, "/upload", url.Values{"path": {path}}, body.fresh(), int64(len(header)+t.NumBytes()))
	})
}

// UploadFrom implements Access: the payload is forwarded from r to the
// server in chunks. r cannot be replayed, so UploadFrom always runs
// single-attempt regardless of the retry policy.
func (c *Client) UploadFrom(path string, dt tensor.DType, shape []int, r io.Reader) error {
	return c.UploadFromContext(context.Background(), path, dt, shape, r)
}

// UploadFromContext is UploadFrom under a caller-supplied context:
// canceling ctx aborts the in-flight transfer promptly instead of
// streaming the remaining payload to a doomed staging tree.
func (c *Client) UploadFromContext(ctx context.Context, path string, dt tensor.DType, shape []int, r io.Reader) error {
	header := tensor.EncodeHeader(dt, shape)
	payload := tensor.ShapeNumBytes(dt, shape)
	body := singleUpload(header, func() io.Reader { return io.LimitReader(r, payload) }, false)
	return c.sendUpload(ctx, "/upload", url.Values{"path": {path}}, body, int64(len(header))+payload)
}

// Delete implements Access. A retried delete whose first attempt
// half-applied could race a concurrent re-create, so it stays
// single-attempt.
func (c *Client) Delete(path string) error {
	return c.DeleteContext(context.Background(), path)
}

// DeleteContext is Delete under a caller-supplied context, so aborts and
// rollbacks are not wedged behind a slow store.
func (c *Client) DeleteContext(ctx context.Context, path string) error {
	_, err := c.do(ctx, http.MethodDelete, "/delete", url.Values{"path": {path}}, nil)
	return err
}

// List implements Access; read-only, retried under the policy.
func (c *Client) List(path string) ([]string, error) {
	return c.ListContext(context.Background(), path)
}

// ListContext is List under a caller-supplied context.
func (c *Client) ListContext(ctx context.Context, path string) ([]string, error) {
	var data []byte
	err := c.withRetry(ctx, "list "+path, func() error {
		var err error
		data, err = c.do(ctx, http.MethodGet, "/list", url.Values{"path": {path}}, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	var names []string
	if err := json.Unmarshal(data, &names); err != nil {
		return nil, fmt.Errorf("store client: bad list response: %w", err)
	}
	return names, nil
}

// Rename implements Access. Rename is NOT idempotent — a retry after a
// response lost in flight would fail on the now-missing source — so it
// always runs single-attempt.
func (c *Client) Rename(src, dst string) error {
	return c.RenameContext(context.Background(), src, dst)
}

// RenameContext is Rename under a caller-supplied context.
func (c *Client) RenameContext(ctx context.Context, src, dst string) error {
	_, err := c.do(ctx, http.MethodPost, "/rename", url.Values{"src": {src}, "dst": {dst}}, nil)
	return err
}

// GetBlob fetches raw bytes from the server; read-only, retried under
// the policy.
func (c *Client) GetBlob(path string) ([]byte, error) {
	return c.GetBlobContext(context.Background(), path)
}

// GetBlobContext is GetBlob under a caller-supplied context.
func (c *Client) GetBlobContext(ctx context.Context, path string) ([]byte, error) {
	var data []byte
	err := c.withRetry(ctx, "getblob "+path, func() error {
		var err error
		data, err = c.do(ctx, http.MethodGet, "/blob", url.Values{"path": {path}}, nil)
		return err
	})
	return data, err
}

// PutBlob stores raw bytes on the server; a full overwrite with a
// replayable body, retried under the policy.
func (c *Client) PutBlob(path string, data []byte) error {
	return c.PutBlobContext(context.Background(), path, data)
}

// PutBlobContext is PutBlob under a caller-supplied context.
func (c *Client) PutBlobContext(ctx context.Context, path string, data []byte) error {
	return c.withRetry(ctx, "putblob "+path, func() error {
		_, err := c.do(ctx, http.MethodPost, "/blob", url.Values{"path": {path}}, bytes.NewReader(data))
		return err
	})
}

// StatResult mirrors the server's stat response.
type StatResult struct {
	Path  string `json:"path"`
	Blob  bool   `json:"blob"`
	DType string `json:"dtype,omitempty"`
	Shape []int  `json:"shape,omitempty"`
	Bytes int    `json:"bytes"`
}

// Stat fetches file metadata; read-only, retried under the policy.
func (c *Client) Stat(path string) (StatResult, error) {
	return c.StatContext(context.Background(), path)
}

// StatContext is Stat under a caller-supplied context.
func (c *Client) StatContext(ctx context.Context, path string) (StatResult, error) {
	var data []byte
	err := c.withRetry(ctx, "stat "+path, func() error {
		var err error
		data, err = c.do(ctx, http.MethodGet, "/stat", url.Values{"path": {path}}, nil)
		return err
	})
	if err != nil {
		return StatResult{}, err
	}
	var st StatResult
	if err := json.Unmarshal(data, &st); err != nil {
		return StatResult{}, fmt.Errorf("store client: bad stat response: %w", err)
	}
	return st, nil
}
