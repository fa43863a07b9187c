package store

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"tenplex/internal/tensor"
)

// Multi-range batch protocol. One POST /batch carries a binary list of
// (path, range) entries; the server coalesces adjacent ranges per
// stored tensor and streams back a single length-prefixed binary frame
// sequence (tensor/frame.go), which the client scatter-writes
// frame-by-frame straight into the destination buffers. Compared with
// one GET /query per plan range, a reconfiguration's whole fetch set
// from a source device costs one round trip and one response body.
//
// The request body, in the pieces tensor/frame.go defines:
//
//	request header, kind RequestBatch
//	count   uint32  entries, 1..maxBatchEntries
//	entry, count times
//	  path  string  the stored tensor
//	  range region  rank 0: all of it
//
// Neither end pays per entry or per frame beyond the bytes themselves:
// the client appends the request straight from its []BatchEntry, the
// server decodes it off the socket into two slices (entries, and one
// arena for every range), frame headers and checksums are written into
// and parsed out of buffers that outlive the frame, and the CRC runs
// over each slice as it is written or filled.

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
// many ranges in one round trip. An apply defers fetches from such a
// store into one batch per source; transform.ReadDevices and ReadPTC read
// a device in one batch. Everything else (Local stores, wrappers that
// hide the capability) is read range by range.
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

var _ BatchQuerier = (*Client)(nil)

// fullRegion appends the region covering all of t to *arena and returns
// it as a slice of the arena: what tensor.FullRegion(t.Shape()) says,
// without its two allocations per call.
func fullRegion(arena *[]tensor.Range, t *tensor.Tensor) tensor.Region {
	start := len(*arena)
	for d := 0; d < t.Rank(); d++ {
		*arena = append(*arena, tensor.Range{Lo: 0, Hi: t.Dim(d)})
	}
	return tensor.Region((*arena)[start:len(*arena):len(*arena)])
}

// BatchQueryInto implements BatchQuerier: all entries in one POST, the
// response scatter-written frame-by-frame into the destination buffers.
// Batches run under the retry policy; a failed attempt re-requests ONLY
// the entries whose frames had not yet been received and verified, so a
// connection that dies near the end of a large batch does not repeat the
// transfer from scratch.
func (c *Client) BatchQueryInto(ctx context.Context, entries []BatchEntry) (BatchStats, error) {
	if len(entries) == 0 {
		return BatchStats{}, nil
	}
	q, err := newBatchQuery(entries)
	if err != nil {
		return q.st, err
	}
	err = c.withRetry(ctx, "batch", func() error {
		q.st.Attempts++
		return c.batchAttempt(ctx, q)
	})
	return q.st, err
}

// batchQuery is one BatchQueryInto in progress: the entries, the region
// each lands in and its size, which of them have arrived verified, and
// which the attempt in flight asked for.
type batchQuery struct {
	entries   []BatchEntry
	ats       []tensor.Region
	sizes     []int64
	done      []bool
	remaining int
	// sub lists the entries of the attempt in flight in request order: a
	// frame's index counts in it.
	sub []int
	st  BatchStats
}

// newBatchQuery checks the entries and sizes what each one receives.
func newBatchQuery(entries []BatchEntry) (*batchQuery, error) {
	q := &batchQuery{
		entries:   entries,
		ats:       make([]tensor.Region, len(entries)),
		sizes:     make([]int64, len(entries)),
		done:      make([]bool, len(entries)),
		remaining: len(entries),
		sub:       make([]int, 0, len(entries)),
		st:        BatchStats{Entries: len(entries)},
	}
	var full []tensor.Range // the regions of entries that name none
	for i, e := range entries {
		if e.Dst == nil {
			return q, fmt.Errorf("store client: batch entry %d (%s): nil destination", i, e.Path)
		}
		at := e.At
		if at == nil {
			at = fullRegion(&full, e.Dst)
		}
		if e.Reg != nil && !e.Reg.SameShape(at) {
			return q, fmt.Errorf("store client: batch entry %d (%s): source region %v != destination region %v",
				i, e.Path, e.Reg, at)
		}
		q.ats[i] = at
		q.sizes[i] = at.NumBytes(e.Dst.DType())
	}
	return q, nil
}

// requestBytesPerEntry sizes a request buffer before it is filled: a
// store path, its length and one rank-2 region come to about this much.
// A guess that is short costs an append's regrowth, nothing else.
const requestBytesPerEntry = 96

// frameReader reads one batch response through a window: one Read of the
// body fills it, and headers, trailers and the runs of a strided
// destination are served from it, so a response of many small runs costs
// a body Read per window, not one per run. A read of directWriteSize or
// more that finds the window empty goes to the body straight into the
// destination. Read — through which tensor.WriteRegion fills the
// destination slices — folds every payload byte into sum as it lands.
// Readers are pooled with their windows, so the frame loop allocates
// nothing.
type frameReader struct {
	body io.Reader
	err  error  // what the body's last Read returned, once the window has run dry
	win  []byte // win[r:w] has been read from the body and not yet consumed
	r, w int
	sum  uint32
}

var frameReaders = sync.Pool{New: func() any { return &frameReader{win: make([]byte, responseWindowSize)} }}

// reset makes f read body from its start.
func (f *frameReader) reset(body io.Reader) {
	f.body, f.err, f.r, f.w = body, nil, 0, 0
}

// fill takes one Read of the body into the window's free space, after
// moving what is left in the window to its front.
func (f *frameReader) fill() {
	if f.r > 0 {
		f.w = copy(f.win, f.win[f.r:f.w])
		f.r = 0
	}
	var n int
	n, f.err = f.body.Read(f.win[f.w:])
	f.w += n
}

// failure is why the body gave out. Inside the stream every end is
// premature: the end frame is where a response stops, so EOF before it
// is a cut stream, io.ErrUnexpectedEOF, which the retry policy re-runs.
func (f *frameReader) failure() error {
	if f.err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return f.err
}

func (f *frameReader) Read(p []byte) (int, error) {
	if f.r == f.w {
		if f.err != nil {
			return 0, f.failure()
		}
		if len(p) >= directWriteSize {
			var n int
			n, f.err = f.body.Read(p)
			f.sum = crc32.Update(f.sum, castagnoli, p[:n])
			return n, nil
		}
		f.fill()
	}
	n := copy(p, f.win[f.r:f.w])
	f.r += n
	f.sum = crc32.Update(f.sum, castagnoli, p[:n])
	return n, nil
}

// fixed consumes the n bytes of a frame header or trailer from the
// window, bypassing the checksum.
func (f *frameReader) fixed(n int, what string) ([]byte, error) {
	for f.w-f.r < n {
		if f.err != nil {
			return nil, fmt.Errorf("store client: batch: %s: %w", what, f.failure())
		}
		f.fill()
	}
	f.r += n
	return f.win[f.r-n : f.r], nil
}

// start reads the stream header and checks the stream is checksummed.
func (f *frameReader) start() error {
	b, err := f.fixed(tensor.FrameStreamHeaderSize, "stream header")
	if err != nil {
		return err
	}
	flags, err := tensor.ParseFrameStreamHeader(b)
	if err != nil {
		return fmt.Errorf("store client: batch: %w", err)
	}
	if flags&tensor.FrameFlagCRC == 0 {
		return fmt.Errorf("store client: batch: frame stream without checksums (flags %#x)", flags)
	}
	return nil
}

// next reads the next frame's header and starts its checksum.
func (f *frameReader) next() (tensor.FrameHeader, error) {
	b, err := f.fixed(tensor.FrameHeaderSize, "frame header")
	if err != nil {
		return tensor.FrameHeader{}, err
	}
	h, err := tensor.ParseFrameHeader(b)
	if err != nil {
		return h, fmt.Errorf("store client: batch: %w", err)
	}
	f.sum = 0
	return h, nil
}

// trailer reads the checksum the sender computed over the frame's
// payload; the receiver's own is sum.
func (f *frameReader) trailer() (uint32, error) {
	b, err := f.fixed(tensor.FrameCRCSize, "crc trailer")
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// end checks that the body ends with the end frame: a response is one
// message, and bytes after it are refused like bytes missing from it.
func (f *frameReader) end() error {
	for f.r == f.w && f.err == nil {
		f.fill()
	}
	if f.r < f.w {
		return fmt.Errorf("store client: batch: bytes after the end frame")
	}
	if f.err != io.EOF {
		return fmt.Errorf("store client: batch: after the end frame: %w", f.err)
	}
	return nil
}

// batchAttempt issues one POST /batch for the not-yet-received entries
// and scatters the response.
func (c *Client) batchAttempt(ctx context.Context, q *batchQuery) error {
	payload := q.request()
	resp, cancel, err := c.doStream(ctx, http.MethodPost, "/batch", url.Values{},
		bytes.NewReader(payload), int64(len(payload)))
	if err != nil {
		return err
	}
	defer cancel()
	defer drainAndClose(resp.Body)
	return q.receive(resp.Body)
}

// request encodes a /batch request for the entries not yet received and
// makes them the attempt's sub.
func (q *batchQuery) request() []byte {
	q.sub = q.sub[:0]
	payload := tensor.AppendRequestHeader(make([]byte, 0, 16+requestBytesPerEntry*q.remaining), tensor.RequestBatch)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(q.remaining))
	for i, e := range q.entries {
		if q.done[i] {
			continue
		}
		q.sub = append(q.sub, i)
		payload = tensor.AppendRegion(tensor.AppendString(payload, e.Path), e.Reg)
	}
	return payload
}

// receive reads the response to the attempt's request from body and
// scatters it, frame by frame, into the destinations. Entries are marked
// received only after their frame's checksum verifies, so a corrupt
// frame is re-requested on the next attempt and its (idempotent) scatter
// overwritten.
func (q *batchQuery) receive(body io.Reader) error {
	fr := frameReaders.Get().(*frameReader)
	fr.reset(body)
	defer func() {
		fr.reset(nil)
		frameReaders.Put(fr)
	}()
	if err := fr.start(); err != nil {
		return err
	}
	asked := len(q.sub)
	for {
		h, err := fr.next()
		if err != nil {
			return err
		}
		if h.End() {
			break
		}
		lo, hi := int(h.Index), int(h.Index)+int(h.Count)
		if lo >= asked || hi > asked {
			return fmt.Errorf("store client: batch: frame covers entries [%d,%d) of %d", lo, hi, asked)
		}
		var want int64
		for j := lo; j < hi; j++ {
			if q.done[q.sub[j]] {
				return fmt.Errorf("store client: batch: entry %d arrived twice", j)
			}
			want += q.sizes[q.sub[j]]
		}
		if h.Length != uint64(want) {
			return fmt.Errorf("store client: batch: frame for %s declares %d bytes, entries total %d",
				q.entries[q.sub[lo]].Path, h.Length, want)
		}
		// WriteRegion reads exactly the region's bytes, a contiguous one
		// in as few reads as the window allows.
		for j := lo; j < hi; j++ {
			i := q.sub[j]
			if _, err := q.entries[i].Dst.WriteRegion(q.ats[i], fr); err != nil {
				return fmt.Errorf("store client: batch %s: %w", q.entries[i].Path, err)
			}
		}
		declared, err := fr.trailer()
		if err != nil {
			return err
		}
		if declared != fr.sum {
			return &ChecksumError{Path: q.entries[q.sub[lo]].Path, Declared: declared, Computed: fr.sum}
		}
		for j := lo; j < hi; j++ {
			q.done[q.sub[j]] = true
		}
		q.remaining -= int(h.Count)
		q.st.Frames++
		q.st.Coalesced += int(h.Count) - 1
		q.st.Bytes += want
	}
	if err := fr.end(); err != nil {
		return err
	}
	if q.remaining > 0 {
		return fmt.Errorf("store client: batch: server answered %d of %d entries", asked-q.remaining, asked)
	}
	return nil
}

// Limits of one /batch request, all far above what a reconfiguration
// plan emits per (device, source) pair. maxPathBytes bounds every store
// path a binary request names (/assemble's too): the decoder allocates a
// path from its declared length, so that length has a cap of its own.
const (
	maxBatchEntries      = 1 << 16
	maxBatchRequestBytes = 16 << 20
	maxPathBytes         = 4 << 10

	// decodeChunk is the most records a request decoder makes room for
	// before any of them has arrived; a request that really carries more
	// grows its slices as the bytes come in.
	decodeChunk = 1 << 10

	// responseBufferSize is the pooled buffer between handleBatch and
	// net/http, whose own is 4 KiB (one write per 4 KiB of small frames).
	// EXPERIMENTS.md ("Binary requests, ...") has the sizes tried.
	responseBufferSize = 256 << 10

	// responseWindowSize is the pooled window a client reads a batch
	// response through (see frameReader). It reads as fast as one of
	// responseBufferSize and costs a quarter of the memory per batch in
	// flight: EXPERIMENTS.md, "A batch response read a window at a time".
	responseWindowSize = 64 << 10
)

// requestReaders and responseWriters pool the two buffers of a binary
// request's handler; both are back in their pool before it returns.
var (
	requestReaders  = sync.Pool{New: func() any { return tensor.NewRequestReader() }}
	responseWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, responseBufferSize) }}
)

// boundedBody returns a pooled reader over the request's body that
// fails with *http.MaxBytesError once limit bytes have been read;
// release hands it back. One helper bounds /batch and /assemble alike.
func boundedBody(w http.ResponseWriter, r *http.Request, limit int64) (d *tensor.RequestReader, release func()) {
	d = requestReaders.Get().(*tensor.RequestReader)
	d.Reset(http.MaxBytesReader(w, r.Body, limit))
	return d, func() {
		d.Reset(nil)
		requestReaders.Put(d)
	}
}

// decodeFailure types what a RequestReader reported about a body: over
// the limit is a 413 that names it, anything else a 400.
func decodeFailure(what string, err error) *requestError {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return tooLarge("%s request exceeds %d bytes", what, mbe.Limit)
	}
	return badRequest("bad %s request: %v", what, err)
}

// batchRequestEntry is one decoded entry of a /batch request; the
// handler resolves t.
type batchRequestEntry struct {
	path string
	reg  tensor.Region
	t    *tensor.Tensor
}

// decodeBatchRequest reads the body of POST /batch. The declared count
// sizes nothing until it has passed its cap, and then only decodeChunk
// entries' worth.
func decodeBatchRequest(d *tensor.RequestReader) ([]batchRequestEntry, *requestError) {
	d.Header(tensor.RequestBatch)
	n := int(d.Uint32())
	if err := d.Err(); err != nil {
		return nil, decodeFailure("batch", err)
	}
	if n == 0 {
		return nil, badRequest("empty batch")
	}
	if n > maxBatchEntries {
		return nil, badRequest("batch of %d entries exceeds limit %d", n, maxBatchEntries)
	}
	entries := make([]batchRequestEntry, 0, min(n, decodeChunk))
	var ranges []tensor.Range
	for i := 0; i < n; i++ {
		e := batchRequestEntry{path: d.String(maxPathBytes), reg: d.Region(&ranges)}
		if err := d.Err(); err != nil {
			return nil, decodeFailure("batch", fmt.Errorf("entry %d: %w", i, err))
		}
		entries = append(entries, e)
	}
	if d.End(); d.Err() != nil {
		return nil, decodeFailure("batch", d.Err())
	}
	return entries, nil
}

// batchFrame is one coalesced run of response entries: count entries
// starting at start, whose union region of t streams as one payload.
type batchFrame struct {
	start, count int
	t            *tensor.Tensor
	union        tensor.Region
	bytes        int64
}

// frameWriter writes the frames of one batch response, and is the one
// allocation of the server's frame loop: headers and trailers are
// appended into the response buffer's own free space, and Write —
// through which a tensor.View streams its payload, run by run, out of
// the stored buffer — folds every byte into sum on its way out. Small
// runs collect in the buffer; a run of directWriteSize or more goes to
// the connection as it lies in the stored tensor, after what was
// buffered before it, so large state is not copied a second time to
// save a system call it would not have noticed. A write error sticks to
// w and surfaces at the next payload or at Flush.
type frameWriter struct {
	w   *bufio.Writer
	out io.Writer // what w writes to
	sum uint32
}

// directWriteSize is the run both ends of a batch move without their
// buffers: the server writes one this large straight to the connection
// (see frameWriter), the client reads one straight into its destination
// when its window is empty (see frameReader). On the client side,
// BenchmarkBatchScatter's 4 and 16 KiB strided rows read the same, within
// the host's noise, at every threshold from 4 to 256 KiB
// (EXPERIMENTS.md, "A batch response read a window at a time").
const directWriteSize = 32 << 10

// Write sends first and sums after: while this end checksums a large
// run the other end is already receiving it.
func (f *frameWriter) Write(p []byte) (n int, err error) {
	if len(p) < directWriteSize {
		n, err = f.w.Write(p)
	} else if err = f.w.Flush(); err == nil {
		n, err = f.out.Write(p)
	}
	f.sum = crc32.Update(f.sum, castagnoli, p[:n])
	return n, err
}

// frame writes one frame: header, the view's payload, CRC32C trailer.
// It returns the payload bytes written.
func (f *frameWriter) frame(h tensor.FrameHeader, v tensor.View) (int64, error) {
	_, _ = f.w.Write(tensor.AppendFrameHeader(f.w.AvailableBuffer(), h))
	f.sum = 0
	n, err := v.WriteTo(f)
	if err != nil {
		return n, err
	}
	_, err = f.w.Write(binary.LittleEndian.AppendUint32(f.w.AvailableBuffer(), f.sum))
	return n, err
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "batch is POST")
		return
	}
	body, release := boundedBody(w, r, maxBatchRequestBytes)
	entries, re := decodeBatchRequest(body)
	release()
	if re != nil {
		httpError(w, re.code, "%s", re.msg)
		return
	}
	// Resolve and validate every entry before the first response byte:
	// the frame stream has no error frames, so failures must surface as
	// plain HTTP statuses, which is only possible up front.
	var full []tensor.Range // the regions of entries that name none
	for i := range entries {
		e := &entries[i]
		t, err := s.FS.GetTensor(e.path)
		if err != nil {
			httpError(w, http.StatusNotFound, "batch entry %d: %v", i, err)
			return
		}
		if e.reg == nil {
			e.reg = fullRegion(&full, t)
		} else if !t.InBounds(e.reg) {
			httpError(w, http.StatusBadRequest, "batch entry %d: region %v out of bounds for %v", i, e.reg, t)
			return
		}
		e.t = t
	}
	// Coalesce runs of adjacent ranges over the same stored tensor into
	// single frames, so a plan that slices a tensor into consecutive
	// rows costs one header + one contiguous payload. A frame's union
	// starts as its first entry's region and is widened in place: the
	// entry's own copy is not read again.
	frames := make([]batchFrame, 0, len(entries))
	total := int64(tensor.FrameStreamHeaderSize) + int64(tensor.FrameHeaderSize) // stream header + end frame
	for i, e := range entries {
		n := e.reg.NumBytes(e.t.DType())
		total += n
		if len(frames) > 0 && frames[len(frames)-1].t == e.t {
			f := &frames[len(frames)-1]
			if d, ok := coalesceDim(f.union, e.reg); ok {
				f.union[d].Hi = e.reg[d].Hi
				f.count++
				f.bytes += n
				continue
			}
		}
		frames = append(frames, batchFrame{start: i, count: 1, t: e.t, union: e.reg, bytes: n})
		total += int64(tensor.FrameHeaderSize) + tensor.FrameCRCSize
	}
	w.Header().Set("Content-Type", "application/x-tenplex-frames")
	w.Header().Set("Content-Length", strconv.FormatInt(total, 10))
	bw := responseWriters.Get().(*bufio.Writer)
	bw.Reset(w)
	defer func() {
		bw.Reset(nil)
		responseWriters.Put(bw)
	}()
	_, _ = bw.Write(tensor.AppendFrameStreamHeader(bw.AvailableBuffer(), tensor.FrameFlagCRC))
	fw := &frameWriter{w: bw, out: w}
	for _, f := range frames {
		h := tensor.FrameHeader{Index: uint32(f.start), Count: uint32(f.count), Length: uint64(f.bytes)}
		n, err := fw.frame(h, f.t.View(f.union))
		s.bytesOut.Add(n)
		if err != nil {
			return // the client is gone; there is nobody to tell
		}
	}
	_, _ = bw.Write(tensor.AppendEndFrame(bw.AvailableBuffer()))
	_ = bw.Flush()
}

// coalesceDim reports whether b continues a — the union's row-major
// payload equals a's payload followed by b's — and along which
// dimension: the regions must differ in exactly one dimension d, be
// adjacent there (a ends where b begins), and every dimension before d
// must have length 1, otherwise the union would interleave the two
// payloads. The union is then a with a[d].Hi = b[d].Hi.
func coalesceDim(a, b tensor.Region) (int, bool) {
	if len(a) != len(b) {
		return 0, false
	}
	d := -1
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		if d >= 0 {
			return 0, false
		}
		d = i
	}
	if d < 0 || a[d].Hi != b[d].Lo {
		return 0, false
	}
	for i := 0; i < d; i++ {
		if a[i].Len() != 1 {
			return 0, false
		}
	}
	return d, true
}
