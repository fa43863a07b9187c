package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"

	"tenplex/internal/tensor"
)

// Server exposes a MemFS over the Tensor Store REST API:
//
//	GET    /query?path=P[&range=R]   tensor (wire format); R slices it
//	POST   /batch                    multi-range query: binary entry list
//	                                 in (layout in batch.go), coalesced
//	                                 CRC-framed stream out (tensor/frame.go)
//	POST   /assemble                 destination-pull: binary list of
//	                                 tensors to build (layout in
//	                                 assemble.go), each from ranges of
//	                                 peer stores (pulled over their /batch),
//	                                 of this store, or a link to a stored
//	                                 tensor; JSON byte counts out
//	POST   /upload?path=P            store the tensor in the body
//	POST   /upload-batch             store many tensors, all or none: per
//	                                 tensor a path, dtype and shape, then
//	                                 its payload as one CRC-trailed frame
//	                                 (layout in upload.go); needs a
//	                                 Content-Length
//	GET    /blob?path=P              raw blob bytes
//	POST   /blob?path=P              store the body as a blob
//	GET    /stat?path=P              JSON {dtype, shape, bytes, blob}
//	GET    /list?path=P              JSON [names...]
//	DELETE /delete?path=P            remove a file or directory
//	POST   /rename?src=S&dst=D       move a file or tree over the target,
//	                                 replacing it; a tree into itself is 400
//
// The range attribute of /query uses the NumPy-like syntax of
// tensor.ParseRegion, e.g. range=[:,2:4] returns the sub-tensor
// covering rows 2..4 of the second dimension; /batch and /assemble
// carry ranges as integer bounds. All three binary requests bound their
// body (16 MiB; /upload-batch, which carries the tensors themselves, 64
// GiB) and answer an oversized one 413, a malformed one 400, before
// anything is allocated from what it declares.
type Server struct {
	FS  *MemFS
	mux *http.ServeMux

	bytesOut    atomic.Int64
	bytesIn     atomic.Int64
	bytesPulled atomic.Int64
}

// NewServer wraps fs in a REST handler.
func NewServer(fs *MemFS) *Server {
	s := &Server{FS: fs, mux: http.NewServeMux()}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/batch", s.handleBatch)
	s.mux.HandleFunc("/assemble", s.handleAssemble)
	s.mux.HandleFunc("/upload", s.handleUpload)
	s.mux.HandleFunc("/upload-batch", s.handleUploadBatch)
	s.mux.HandleFunc("/blob", s.handleBlob)
	s.mux.HandleFunc("/stat", s.handleStat)
	s.mux.HandleFunc("/list", s.handleList)
	s.mux.HandleFunc("/delete", s.handleDelete)
	s.mux.HandleFunc("/rename", s.handleRename)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// BytesServed returns the total payload bytes sent to clients; tests use
// it to assert that range queries move only the requested data.
func (s *Server) BytesServed() int64 { return s.bytesOut.Load() }

// BytesReceived returns the total bytes uploaded by clients: for a
// tensor its encoding (wire header and payload), whether it came alone
// through /upload or with others through /upload-batch.
func (s *Server) BytesReceived() int64 { return s.bytesIn.Load() }

// BytesPulled returns the total payload bytes this store fetched from
// its peers while assembling tensors (POST /assemble). They are not
// part of BytesReceived: the peer that served them counts them once, in
// its BytesServed.
func (s *Server) BytesPulled() int64 { return s.bytesPulled.Load() }

// Listen serves the API on addr (e.g. "127.0.0.1:0") until the listener
// is closed; it returns the bound address.
func (s *Server) Listen(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("store: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func pathParam(w http.ResponseWriter, r *http.Request) (string, bool) {
	p := r.URL.Query().Get("path")
	if p == "" {
		httpError(w, http.StatusBadRequest, "missing path parameter")
		return "", false
	}
	return p, true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "query is GET")
		return
	}
	path, ok := pathParam(w, r)
	if !ok {
		return
	}
	t, o, err := s.FS.pin(path)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	defer s.FS.unpin(o)
	// The response streams straight out of the stored tensor's buffer,
	// which the pin keeps from being reused until it is out: no
	// sub-tensor is materialized for range reads, and whole-tensor
	// reads write the backing bytes after a small header. The view is
	// built from the tensor already in hand, so the range validates
	// against exactly the snapshot being served.
	v := t.FullView()
	if rangeStr := r.URL.Query().Get("range"); rangeStr != "" {
		// A scalar's Shape() is nil, which ParseRegion takes for "no shape"
		// and checks no rank against: hand it the rank-0 shape instead.
		shape := t.Shape()
		if shape == nil {
			shape = []int{}
		}
		reg, err := tensor.ParseRegion(rangeStr, shape)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// "[]" parses to an empty region, which means the whole tensor
		// (the same convention Client.Query uses); building a View from
		// it would panic on rank mismatch.
		if len(reg) > 0 {
			v = t.View(reg)
		}
	}
	w.Header().Set("Content-Type", "application/x-tenplex-tensor")
	w.Header().Set("Content-Length", fmt.Sprint(v.EncodedSize()))
	n, _ := v.Encode(w)
	s.bytesOut.Add(n)
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "upload is POST")
		return
	}
	path, ok := pathParam(w, r)
	if !ok {
		return
	}
	// Decode incrementally: the header sizes one allocation and the
	// payload streams from the request body directly into it — the
	// server never buffers the full encoded body.
	cr := &countingReader{r: r.Body}
	dt, shape, err := tensor.DecodeHeaderFrom(cr)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The header is untrusted: before allocating, cap the declared
	// payload and require it to match the announced body size (clients
	// always set Content-Length; a chunked upload announces none, so the
	// cap is all that bounds its allocation).
	payload, re := checkedTensorBytes(dt, shape)
	if re != nil {
		httpError(w, re.code, "upload: %s", re.msg)
		return
	}
	if want := int64(tensor.HeaderSize(len(shape))) + payload; r.ContentLength >= 0 && r.ContentLength != want {
		httpError(w, http.StatusBadRequest, "upload body %d bytes, header declares %d", r.ContentLength, want)
		return
	}
	// The payload overwrites every byte of the buffer, so a recycled one
	// needs no clearing; one that is not stored goes back.
	o, _ := s.FS.alloc(dt, shape)
	if _, err := io.ReadFull(cr, o.t.Data()); err != nil {
		s.FS.release(o)
		httpError(w, http.StatusBadRequest, "upload payload: %v", err)
		return
	}
	// Reject trailing bytes (e.g. two concatenated tensors) before
	// storing, mirroring the strictness of the old whole-body decode.
	var extra [1]byte
	if n, _ := io.ReadFull(cr, extra[:]); n != 0 {
		s.FS.release(o)
		httpError(w, http.StatusBadRequest, "trailing bytes after encoded tensor")
		return
	}
	if err := s.FS.putOwned(path, o); err != nil {
		s.FS.release(o)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.bytesIn.Add(cr.n)
	w.WriteHeader(http.StatusNoContent)
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	path, ok := pathParam(w, r)
	if !ok {
		return
	}
	switch r.Method {
	case http.MethodGet:
		data, err := s.FS.GetBlob(path)
		if err != nil {
			httpError(w, http.StatusNotFound, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		s.bytesOut.Add(int64(len(data)))
		_, _ = w.Write(data)
	case http.MethodPost:
		// Announced over the cap is refused unread; chunked is cut off at it.
		if r.ContentLength > maxTensorBytes {
			httpError(w, http.StatusRequestEntityTooLarge, "blob request exceeds %d bytes", int64(maxTensorBytes))
			return
		}
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxTensorBytes))
		if err != nil {
			re := decodeFailure("blob", err)
			httpError(w, re.code, "%s", re.msg)
			return
		}
		if err := s.FS.PutBlob(path, data); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.bytesIn.Add(int64(len(data)))
		w.WriteHeader(http.StatusNoContent)
	default:
		httpError(w, http.StatusMethodNotAllowed, "blob is GET or POST")
	}
}

// statJSON is the wire form of Stat.
type statJSON struct {
	Path  string `json:"path"`
	Blob  bool   `json:"blob"`
	DType string `json:"dtype,omitempty"`
	Shape []int  `json:"shape,omitempty"`
	Bytes int    `json:"bytes"`
}

func (s *Server) handleStat(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "stat is GET")
		return
	}
	path, ok := pathParam(w, r)
	if !ok {
		return
	}
	st, err := s.FS.Stat(path)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	out := statJSON{Path: st.Path, Blob: st.IsBlob, Bytes: st.Bytes}
	if !st.IsBlob {
		out.DType = st.DType.String()
		out.Shape = st.Shape
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "list is GET")
		return
	}
	path := r.URL.Query().Get("path")
	if path == "" {
		path = "/"
	}
	names, err := s.FS.List(path)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(names)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		httpError(w, http.StatusMethodNotAllowed, "delete is DELETE")
		return
	}
	path, ok := pathParam(w, r)
	if !ok {
		return
	}
	if err := s.FS.Delete(path); err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleRename(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "rename is POST")
		return
	}
	src, dst := r.URL.Query().Get("src"), r.URL.Query().Get("dst")
	if src == "" || dst == "" {
		httpError(w, http.StatusBadRequest, "rename needs src and dst")
		return
	}
	if err := s.FS.Rename(src, dst); err != nil {
		code := http.StatusNotFound
		if errors.Is(err, errRenameIntoItself) {
			code = http.StatusBadRequest
		}
		httpError(w, code, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// trimStatus extracts the first line of an HTTP error body for client
// error messages.
func trimStatus(body []byte) string {
	s := strings.TrimSpace(string(body))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
