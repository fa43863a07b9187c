package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"time"

	"tenplex/internal/tensor"
)

// Multi-range batch protocol. One POST /batch carries a JSON list of
// (path, range) entries; the server coalesces adjacent ranges per
// stored tensor and streams back a single length-prefixed binary frame
// sequence (tensor/frame.go), which the client scatter-writes
// frame-by-frame straight into the destination buffers. Compared with
// one GET /query per plan range, a reconfiguration's whole fetch set
// from a source device costs one round trip and one response body.

// BatchEntry is one range of the batch: read Reg (nil for the whole
// stored tensor) of the tensor at Path into the sub-region At of Dst
// (nil for all of Dst). The region shapes must match; dtypes are the
// caller's contract — the frame stream carries raw payload bytes only.
type BatchEntry struct {
	Path string
	Reg  tensor.Region
	Dst  *tensor.Tensor
	At   tensor.Region
}

// BatchStats reports how a batch was served.
type BatchStats struct {
	// Entries is the number of requested ranges.
	Entries int
	// Frames is the number of data frames received; Coalesced counts
	// entries the server merged into a preceding frame, so
	// Frames+Coalesced == Entries on a single-attempt batch.
	Frames    int
	Coalesced int
	// Bytes is the total payload received across all attempts.
	Bytes int64
	// Attempts counts batch request attempts.
	Attempts int
}

// BatchQuerier is implemented by Access implementations that can serve
// many ranges in one round trip. The transformer defers fetches from
// such a store into one batch per source and reads everything else
// (Local stores, wrappers that hide the capability) range by range.
type BatchQuerier interface {
	BatchQueryInto(ctx context.Context, entries []BatchEntry) (BatchStats, error)
}

// ChecksumError reports a batch frame whose CRC32C trailer does not
// match its payload — corruption in flight. It is retryable: the
// scatter-write is idempotent, so the frame is simply re-requested.
type ChecksumError struct {
	// Path is the tensor path of the frame's first entry.
	Path string
	// Declared is the trailer's checksum; Computed is the payload's.
	Declared, Computed uint32
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("store: batch frame for %s: checksum mismatch (declared %#x, computed %#x)",
		e.Path, e.Declared, e.Computed)
}

// castagnoli is the CRC32C table shared by client and server; the
// Castagnoli polynomial is hardware-accelerated on amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// batchWireEntry / batchWireRequest form the JSON body of POST /batch.
type batchWireEntry struct {
	Path  string `json:"path"`
	Range string `json:"range,omitempty"`
}

type batchWireRequest struct {
	Entries []batchWireEntry `json:"entries"`
}

var _ BatchQuerier = (*Client)(nil)

// BatchQueryInto implements BatchQuerier: all entries in one POST, the
// response scatter-written frame-by-frame into the destination buffers.
// Batches run under the retry policy; a failed attempt re-requests ONLY
// the entries whose frames had not yet been received and verified, so a
// connection that dies near the end of a large batch does not repeat the
// transfer from scratch.
func (c *Client) BatchQueryInto(ctx context.Context, entries []BatchEntry) (BatchStats, error) {
	st := BatchStats{Entries: len(entries)}
	if len(entries) == 0 {
		return st, nil
	}
	ats := make([]tensor.Region, len(entries))
	sizes := make([]int64, len(entries))
	for i, e := range entries {
		if e.Dst == nil {
			return st, fmt.Errorf("store client: batch entry %d (%s): nil destination", i, e.Path)
		}
		at := e.At
		if at == nil {
			at = tensor.FullRegion(e.Dst.Shape())
		}
		if e.Reg != nil && !tensor.ShapeEqual(e.Reg.Shape(), at.Shape()) {
			return st, fmt.Errorf("store client: batch entry %d (%s): source region %v != destination region %v",
				i, e.Path, e.Reg, at)
		}
		ats[i] = at
		sizes[i] = at.NumBytes(e.Dst.DType())
	}
	done := make([]bool, len(entries))
	remaining := len(entries)
	max := c.Retry.attempts()
	var lastErr error
	attempt := 0
	for attempt < max {
		attempt++
		st.Attempts++
		c.Stats.Attempts.Add(1)
		c.Metrics.Add("store.client.attempts", 1)
		if attempt > 1 {
			c.Stats.Retries.Add(1)
			c.Metrics.Add("store.client.retries", 1)
		}
		err := c.batchAttempt(ctx, entries, ats, sizes, done, &remaining, &st)
		if err == nil {
			return st, nil
		}
		lastErr = err
		if ctx.Err() != nil || !retryable(err) {
			return st, err
		}
		if attempt < max {
			d := c.jitterStep(attempt)
			if c.Retry.Sleep != nil {
				c.Retry.Sleep(d)
			} else {
				time.Sleep(d)
			}
		}
	}
	if max > 1 {
		c.Stats.Exhausted.Add(1)
		c.Metrics.Add("store.client.exhausted", 1)
		return st, &RetryExhaustedError{Op: "batch", Attempts: attempt, Err: lastErr}
	}
	return st, lastErr
}

// batchAttempt issues one POST /batch for the not-yet-received entries
// and scatters the response. Entries are marked received only after
// their frame's checksum verifies, so a corrupt frame is re-requested
// on the next attempt and its (idempotent) scatter overwritten.
func (c *Client) batchAttempt(ctx context.Context, entries []BatchEntry, ats []tensor.Region,
	sizes []int64, done []bool, remaining *int, st *BatchStats) error {
	sub := make([]int, 0, *remaining)
	wire := batchWireRequest{Entries: make([]batchWireEntry, 0, *remaining)}
	for i, e := range entries {
		if done[i] {
			continue
		}
		sub = append(sub, i)
		we := batchWireEntry{Path: e.Path}
		if e.Reg != nil {
			we.Range = e.Reg.String()
		}
		wire.Entries = append(wire.Entries, we)
	}
	payload, err := json.Marshal(wire)
	if err != nil {
		return fmt.Errorf("store client: batch: %w", err)
	}
	resp, cancel, err := c.doStream(ctx, http.MethodPost, "/batch", url.Values{},
		bytes.NewReader(payload), int64(len(payload)))
	if err != nil {
		return err
	}
	defer cancel()
	defer drainAndClose(resp.Body)
	flags, err := tensor.DecodeFrameStreamHeader(resp.Body)
	if err != nil {
		return fmt.Errorf("store client: batch: %w", err)
	}
	if flags&tensor.FrameFlagCRC == 0 {
		return fmt.Errorf("store client: batch: frame stream without checksums (flags %#x)", flags)
	}
	for {
		h, err := tensor.DecodeFrameHeaderFrom(resp.Body)
		if err != nil {
			return fmt.Errorf("store client: batch: %w", err)
		}
		if h.End() {
			break
		}
		lo, hi := int(h.Index), int(h.Index)+int(h.Count)
		if lo >= len(sub) || hi > len(sub) {
			return fmt.Errorf("store client: batch: frame covers entries [%d,%d) of %d", lo, hi, len(sub))
		}
		var want int64
		for j := lo; j < hi; j++ {
			want += sizes[sub[j]]
		}
		if h.Length != uint64(want) {
			return fmt.Errorf("store client: batch: frame for %s declares %d bytes, entries total %d",
				entries[sub[lo]].Path, h.Length, want)
		}
		sum := crc32.New(castagnoli)
		body := io.TeeReader(resp.Body, sum)
		for j := lo; j < hi; j++ {
			i := sub[j]
			if _, err := entries[i].Dst.WriteRegion(ats[i], io.LimitReader(body, sizes[i])); err != nil {
				return fmt.Errorf("store client: batch %s: %w", entries[i].Path, err)
			}
		}
		var tr [tensor.FrameCRCSize]byte
		if _, err := io.ReadFull(resp.Body, tr[:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("store client: batch: crc trailer: %w", err)
		}
		if declared := binary.LittleEndian.Uint32(tr[:]); declared != sum.Sum32() {
			return &ChecksumError{Path: entries[sub[lo]].Path, Declared: declared, Computed: sum.Sum32()}
		}
		for j := lo; j < hi; j++ {
			done[sub[j]] = true
		}
		*remaining -= int(h.Count)
		st.Frames++
		st.Coalesced += int(h.Count) - 1
		st.Bytes += want
	}
	if *remaining > 0 {
		return fmt.Errorf("store client: batch: server answered %d of %d entries", len(sub)-*remaining, len(sub))
	}
	return nil
}

// maxBatchEntries bounds one batch request; maxBatchRequestBytes bounds
// its JSON body. Both are far above what a reconfiguration plan emits
// per (device, source) pair.
const (
	maxBatchEntries      = 1 << 16
	maxBatchRequestBytes = 16 << 20
)

// batchFrame is one coalesced run of response entries: count entries
// starting at start, whose union region of t streams as one payload.
type batchFrame struct {
	start, count int
	t            *tensor.Tensor
	union        tensor.Region
	bytes        int64
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "batch is POST")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBatchRequestBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var req batchWireRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad batch request: %v", err)
		return
	}
	if len(req.Entries) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Entries) > maxBatchEntries {
		httpError(w, http.StatusBadRequest, "batch of %d entries exceeds limit %d", len(req.Entries), maxBatchEntries)
		return
	}
	// Resolve and validate every entry before the first response byte:
	// the frame stream has no error frames, so failures must surface as
	// plain HTTP statuses, which is only possible up front.
	type resolvedEntry struct {
		t   *tensor.Tensor
		reg tensor.Region
	}
	res := make([]resolvedEntry, len(req.Entries))
	for i, e := range req.Entries {
		t, err := s.FS.GetTensor(e.Path)
		if err != nil {
			httpError(w, http.StatusNotFound, "batch entry %d: %v", i, err)
			return
		}
		reg := tensor.FullRegion(t.Shape())
		if e.Range != "" {
			pr, err := tensor.ParseRegion(e.Range, t.Shape())
			if err != nil {
				httpError(w, http.StatusBadRequest, "batch entry %d: %v", i, err)
				return
			}
			if len(pr) > 0 {
				reg = pr
			}
		}
		res[i] = resolvedEntry{t: t, reg: reg}
	}
	// Coalesce runs of adjacent ranges over the same stored tensor into
	// single frames, so a plan that slices a tensor into consecutive
	// rows costs one header + one contiguous payload.
	frames := make([]batchFrame, 0, len(res))
	for i, re := range res {
		n := re.reg.NumBytes(re.t.DType())
		if len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.t == re.t {
				if u, ok := coalesceRegions(f.union, re.reg); ok {
					f.union = u
					f.count++
					f.bytes += n
					continue
				}
			}
		}
		frames = append(frames, batchFrame{start: i, count: 1, t: re.t, union: re.reg, bytes: n})
	}
	total := int64(tensor.FrameStreamHeaderSize) + int64(tensor.FrameHeaderSize) // stream header + end frame
	for _, f := range frames {
		total += int64(tensor.FrameHeaderSize) + f.bytes + tensor.FrameCRCSize
	}
	w.Header().Set("Content-Type", "application/x-tenplex-frames")
	w.Header().Set("Content-Length", fmt.Sprint(total))
	if _, err := w.Write(tensor.EncodeFrameStreamHeader(tensor.FrameFlagCRC)); err != nil {
		return
	}
	for _, f := range frames {
		h := tensor.FrameHeader{Index: uint32(f.start), Count: uint32(f.count), Length: uint64(f.bytes)}
		if _, err := w.Write(tensor.EncodeFrameHeader(h)); err != nil {
			return
		}
		sum := crc32.New(castagnoli)
		n, err := f.t.View(f.union).WriteTo(io.MultiWriter(w, sum))
		s.bytesOut.Add(n)
		if err != nil {
			return
		}
		var tr [tensor.FrameCRCSize]byte
		binary.LittleEndian.PutUint32(tr[:], sum.Sum32())
		if _, err := w.Write(tr[:]); err != nil {
			return
		}
	}
	_, _ = w.Write(tensor.EncodeEndFrame())
}

// coalesceRegions merges b onto the end of a when the union's row-major
// payload equals a's payload followed by b's: the regions must differ
// in exactly one dimension d, be adjacent there (a ends where b
// begins), and every dimension before d must have length 1 — otherwise
// the union would interleave the two payloads. Returns a fresh Region.
func coalesceRegions(a, b tensor.Region) (tensor.Region, bool) {
	if len(a) != len(b) {
		return nil, false
	}
	d := -1
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		if d >= 0 {
			return nil, false
		}
		d = i
	}
	if d < 0 || a[d].Hi != b[d].Lo {
		return nil, false
	}
	for i := 0; i < d; i++ {
		if a[i].Len() != 1 {
			return nil, false
		}
	}
	u := a.Clone()
	u[d] = tensor.Range{Lo: a[d].Lo, Hi: b[d].Hi}
	return u, true
}
