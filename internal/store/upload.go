package store

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"

	"tenplex/internal/tensor"
)

// Batched upload: the mirror image of /batch. One POST /upload-batch
// carries many tensors for one store, so deploying a job or restoring it
// from a checkpoint costs a store one round trip instead of one per
// sub-tensor, and every payload crosses the wire under a checksum.
//
// The request body, in the pieces tensor/frame.go defines:
//
//	request header, kind RequestUpload
//	count   uint32  items, 1..maxUploadBatchItems
//	item, count times
//	  path    string  where the tensor goes; no path twice in a request
//	  dtype   uint8
//	  rank    uint8
//	  shape   rank × uint64
//	  frame   frame header: index = the item's, count = 1,
//	          length = the shape's bytes
//	  payload length × byte, row-major
//	  crc     uint32  CRC32C (Castagnoli) of the payload
//
// A request has one encoding, and its length follows from its paths and
// shapes: the client announces it (Content-Length) before the first
// byte, the server refuses a body without one (411) and any item that
// declares more than what was announced still has room for, so nothing
// a request declares is allocated unless the request said up front it
// would send that much. The server allocates an item's tensor when that
// item's frame begins, reads the payload straight into it, and stores
// nothing unless every frame verified and the body ended where the
// last one did. The reply is 204, or a typed 4xx: 413 over a cap, 422
// for a frame that failed its checksum — damage on the way, which alone
// among the 4xx the client answers by sending the request again.

// UploadItem is one tensor of a batched upload: the payload of View,
// stored at Path as a tensor of the view's dtype and shape.
type UploadItem struct {
	Path string
	View tensor.View
}

// BatchUploader is implemented by Access implementations that can take
// many tensors in one round trip. transform.WriteDevices, the one writer
// of a job's state to its device stores (deploy, checkpoint restore,
// replication), sends such a store one batch; every other store (Local,
// a wrapper that hides the capability) is uploaded to tensor by tensor.
// A batch that does not arrive whole and intact stores nothing.
type BatchUploader interface {
	UploadBatch(ctx context.Context, items []UploadItem) error
}

var _ BatchUploader = (*Client)(nil)

// Limits of one /upload-batch request. The item cap matches /assemble's;
// the byte cap is what one /assemble may allocate.
const (
	maxUploadBatchItems = maxAssembleItems
	maxUploadBatchBytes = maxAssembleBytes

	uploadBatchHeadSize = tensor.RequestHeaderSize + 4 // request header, count

	// statusCorruptFrame answers a frame whose checksum does not match.
	statusCorruptFrame = http.StatusUnprocessableEntity
)

// uploadItemSize is the encoded size of a batch item around its payload.
func uploadItemSize(pathLen, rank int) int64 {
	return int64(4 + pathLen + 2 + 8*rank + tensor.FrameHeaderSize + tensor.FrameCRCSize)
}

// UploadBatch implements BatchUploader: every item in one POST, each
// payload streamed from where it lies in its source tensor. Storing a
// batch overwrites whatever its paths held, so the request is idempotent,
// and its body replays from the views: it runs under the retry policy.
func (c *Client) UploadBatch(ctx context.Context, items []UploadItem) error {
	if len(items) == 0 {
		return nil
	}
	body, length, err := batchUpload(items)
	if err != nil {
		return fmt.Errorf("store client: upload-batch: %w", err)
	}
	return c.withRetry(ctx, "upload-batch", func() error {
		return c.sendUpload(ctx, "/upload-batch", url.Values{}, body.fresh(), length)
	})
}

// batchUpload is the body of POST /upload-batch for items, and its
// length, which follows from the paths and shapes alone.
func batchUpload(items []UploadItem) (*uploadBody, int64, error) {
	length := int64(uploadBatchHeadSize)
	for i, it := range items {
		if it.View.Rank() > maxTensorRank {
			return nil, 0, fmt.Errorf("item %d (%s): rank %d exceeds limit %d", i, it.Path, it.View.Rank(), maxTensorRank)
		}
		length += uploadItemSize(len(it.Path), it.View.Rank()) + int64(it.View.NumBytes())
	}
	return &uploadBody{crc: true, replays: true, section: func(i int, buf []byte) ([]byte, io.Reader) {
		if i == len(items) {
			return nil, nil
		}
		if i == 0 {
			buf = tensor.AppendRequestHeader(buf, tensor.RequestUpload)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(items)))
		}
		v := items[i].View
		buf = tensor.AppendString(buf, items[i].Path)
		buf = append(buf, uint8(v.DType()), uint8(v.Rank()))
		for _, d := range v.Shape() {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(d))
		}
		buf = tensor.AppendFrameHeader(buf, tensor.FrameHeader{Index: uint32(i), Count: 1, Length: uint64(v.NumBytes())})
		return buf, v.Reader()
	}}, length, nil
}

// sendUpload posts an upload, single or batched; the reply has no body.
func (c *Client) sendUpload(ctx context.Context, endpoint string, params url.Values, body *uploadBody, length int64) error {
	resp, cancel, err := c.doStream(ctx, http.MethodPost, endpoint, params, body, length)
	if err != nil {
		return err
	}
	cancel()
	return drainAndClose(resp.Body)
}

// uploadBody is the request body of every upload, POST /upload as well
// as POST /upload-batch: a run of sections, each a few header bytes and
// a payload, and after the payload — in a batch — its CRC32C. net/http
// pulls a body whose length it was told through Read, 32 KiB at a time
// (it wraps the body in an io.LimitedReader, so a WriterTo is consulted
// only under chunked transfer, and for what is left once the declared
// length is out: the 32 KiB buffer io.MultiReader's WriteTo allocated
// there on every upload is why this type exists). So Read fills p to the
// brim across section boundaries: what reaches the socket is full
// buffers, not one write per header, and a payload byte is copied once,
// from where it lies in its source into p, and summed there. Nothing is
// staged: the body holds one section's header at a time.
type uploadBody struct {
	// section appends section i's header to buf and returns it with the
	// section's payload; past the last section the payload is nil.
	section func(i int, buf []byte) (head []byte, payload io.Reader)
	// crc makes every payload be followed by its checksum.
	crc bool
	// replays says section gives the same answer every time it is asked:
	// the body can be sent again (fresh), which an upload from a
	// caller's reader cannot.
	replays bool

	next    int       // the section to open once this one is out
	buf     []byte    // what head is cut from, reused section to section
	head    []byte    // header, or trailer, bytes not yet read
	payload io.Reader // nil once drained
	sum     uint32
}

// fresh returns the body at its start.
func (b *uploadBody) fresh() *uploadBody {
	return &uploadBody{section: b.section, crc: b.crc, replays: b.replays}
}

func (b *uploadBody) Read(p []byte) (n int, err error) {
	for n < len(p) {
		switch {
		case len(b.head) > 0:
			c := copy(p[n:], b.head)
			b.head = b.head[c:]
			n += c
		case b.payload != nil:
			c, err := b.payload.Read(p[n:])
			if b.crc {
				b.sum = crc32.Update(b.sum, castagnoli, p[n:n+c])
			}
			n += c
			if err == io.EOF {
				b.payload = nil
				if b.crc {
					b.buf = binary.LittleEndian.AppendUint32(b.buf[:0], b.sum)
					b.head = b.buf
				}
			} else if err != nil || c == 0 {
				return n, err // a source that stalls is the caller's to wait for
			}
		default:
			b.buf, b.payload = b.section(b.next, b.buf[:0])
			if b.payload == nil {
				if n == 0 {
					return 0, io.EOF
				}
				return n, nil
			}
			b.next++
			b.head, b.sum = b.buf, 0
		}
	}
	return n, nil
}

// singleUpload is the body of POST /upload: the tensor's wire header,
// then its payload.
func singleUpload(header []byte, payload func() io.Reader, replays bool) *uploadBody {
	return &uploadBody{replays: replays, section: func(i int, buf []byte) ([]byte, io.Reader) {
		if i > 0 {
			return nil, nil
		}
		return append(buf, header...), payload()
	}}
}

// uploadedTensor is one decoded item of an /upload-batch request, in a
// buffer of the store's own.
type uploadedTensor struct {
	path string
	*owned
}

// decodeUploadBatch reads the body of POST /upload-batch, of which the
// client announced announced bytes, into tensors. Every field of an item
// is checked before its tensor is sized from them, and the tensor is
// allocated only if the announced length still has room for its payload:
// what the decoder holds grows with the bytes that arrive, never with a
// count or a shape declared. It returns the tensors only when every
// frame's checksum verified and the body ends after the last. Every
// tensor is built in a buffer from fs.alloc, which its payload fills
// whole; when the body is refused they all go back to fs.
func decodeUploadBatch(d *tensor.RequestReader, announced int64, fs *MemFS) (items []uploadedTensor, re *requestError) {
	defer func() {
		if re != nil {
			for _, it := range items {
				fs.release(it.owned)
			}
			items = nil
		}
	}()
	d.Header(tensor.RequestUpload)
	n := int(d.Uint32())
	if err := d.Err(); err != nil {
		return nil, decodeFailure("upload-batch", err)
	}
	if n == 0 {
		return nil, badRequest("empty upload batch")
	}
	if n > maxUploadBatchItems {
		return nil, tooLarge("upload batch of %d items exceeds limit %d", n, maxUploadBatchItems)
	}
	items = make([]uploadedTensor, 0, min(n, decodeChunk))
	var (
		seen = make(map[string]struct{}, min(n, decodeChunk))
		dims [maxTensorRank]int
		fr   = crcReader{r: d}
		need = int64(uploadBatchHeadSize) // body bytes the items so far account for
	)
	for i := 0; i < n; i++ {
		path, dt := d.String(maxPathBytes), tensor.DType(d.Uint8())
		rank := int(d.Uint8())
		if rank > maxTensorRank && d.Err() == nil {
			return items, badRequest("item %d (%s): rank %d exceeds limit %d", i, path, rank, maxTensorRank)
		}
		shape := dims[:rank]
		for j := range shape {
			shape[j] = int(d.Uint64()) // past MaxInt64 reads as negative, and is refused as that
		}
		h := tensor.FrameHeader{Index: d.Uint32(), Count: d.Uint32(), Length: d.Uint64()}
		if err := d.Err(); err != nil {
			return items, decodeFailure("upload-batch", fmt.Errorf("item %d: %w", i, err))
		}
		if path == "" {
			return items, badRequest("item %d: missing path", i)
		}
		if !dt.Valid() {
			return items, badRequest("item %d (%s): invalid dtype %d", i, path, dt)
		}
		payload, re := checkedTensorBytes(dt, shape)
		if re != nil {
			re.msg = fmt.Sprintf("item %d (%s): %s", i, path, re.msg)
			return items, re
		}
		if h.Index != uint32(i) || h.Count != 1 || h.Length != uint64(payload) {
			return items, badRequest("item %d (%s): frame header {index %d, count %d, length %d}, want {%d, 1, %d}",
				i, path, h.Index, h.Count, h.Length, i, payload)
		}
		if _, twice := seen[path]; twice {
			return items, badRequest("item %d: path %s named twice", i, path)
		}
		if need += uploadItemSize(len(path), rank) + payload; need > announced {
			return items, badRequest("item %d (%s): request declares %d bytes so far, announced %d", i, path, need, announced)
		}
		o, _ := fs.alloc(dt, shape)
		items = append(items, uploadedTensor{path: path, owned: o})
		fr.sum = 0
		if _, err := io.ReadFull(&fr, o.t.Data()); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return items, decodeFailure("upload-batch", fmt.Errorf("item %d (%s): payload: %w", i, path, err))
		}
		declared := d.Uint32()
		if err := d.Err(); err != nil {
			return items, decodeFailure("upload-batch", fmt.Errorf("item %d (%s): crc trailer: %w", i, path, err))
		}
		if declared != fr.sum {
			return items, &requestError{code: statusCorruptFrame, msg: fmt.Sprintf(
				"item %d (%s): checksum mismatch (declared %#x, computed %#x)", i, path, declared, fr.sum)}
		}
		seen[path] = struct{}{}
	}
	if d.End(); d.Err() != nil {
		return items, decodeFailure("upload-batch", d.Err())
	}
	return items, nil
}

// crcReader folds every byte read through it into sum: the payload of an
// upload frame, on its way from the request buffer into its tensor.
type crcReader struct {
	r   io.Reader
	sum uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.sum = crc32.Update(c.sum, castagnoli, p[:n])
	return n, err
}

func (s *Server) handleUploadBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "upload-batch is POST")
		return
	}
	switch {
	case r.ContentLength < 0:
		httpError(w, http.StatusLengthRequired, "upload-batch needs a Content-Length")
		return
	case r.ContentLength > maxUploadBatchBytes:
		httpError(w, http.StatusRequestEntityTooLarge, "upload-batch request exceeds %d bytes", int64(maxUploadBatchBytes))
		return
	}
	body, release := boundedBody(w, r, maxUploadBatchBytes)
	items, re := decodeUploadBatch(body, r.ContentLength, s.FS)
	release()
	if re != nil {
		httpError(w, re.code, "%s", re.msg)
		return
	}
	files := make([]fileAt, len(items))
	var in int64
	for i, it := range items {
		files[i] = fileAt{path: it.path, e: entry{t: it.t, own: it.owned}}
		// What /upload counts for the same tensor: its encoding, wire
		// header and payload.
		in += int64(tensor.HeaderSize(it.t.Rank()) + it.t.NumBytes())
	}
	if err := s.FS.putAll(files); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.bytesIn.Add(in)
	w.WriteHeader(http.StatusNoContent)
}
