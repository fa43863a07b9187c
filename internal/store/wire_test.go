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
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"tenplex/internal/tensor"
)

// The frame loop is free: once a response's writer and a pooled reader
// exist, a frame — header, payload out of or into a tensor at its
// strides through the reader's window, CRC32C — is written and read
// without allocating, whether the region is one contiguous span or many
// runs.
func TestFrameLoopDoesNotAllocate(t *testing.T) {
	src := seqTensor(8, 6)
	for name, reg := range map[string]tensor.Region{
		"contiguous": rows(2, 5, 6),
		"strided":    {{Lo: 1, Hi: 7}, {Lo: 2, Hi: 5}},
	} {
		var wire bytes.Buffer
		bw := bufio.NewWriterSize(&wire, 1<<10)
		fw := &frameWriter{w: bw, out: &wire}
		h := tensor.FrameHeader{Index: 3, Count: 1, Length: uint64(reg.NumBytes(src.DType()))}
		view := src.View(reg)
		write := func() {
			wire.Reset()
			if _, err := fw.frame(h, view); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		write() // bytes.Buffer grows once
		if n := testing.AllocsPerRun(100, write); n != 0 {
			t.Errorf("%s: writing a frame allocates %v times", name, n)
		}

		frame := bytes.Clone(wire.Bytes())
		body := bytes.NewReader(frame)
		fr := frameReaders.Get().(*frameReader)
		defer frameReaders.Put(fr)
		dst := tensor.New(src.DType(), 8, 6)
		read := func() {
			body.Reset(frame)
			fr.reset(body)
			got, err := fr.next()
			if err != nil || got != h {
				t.Fatalf("header %+v (err %v), want %+v", got, err, h)
			}
			if _, err := dst.WriteRegion(reg, fr); err != nil {
				t.Fatal(err)
			}
			if declared, err := fr.trailer(); err != nil || declared != fr.sum {
				t.Fatalf("trailer %#x (err %v), computed %#x", declared, err, fr.sum)
			}
		}
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("%s: reading a frame allocates %v times", name, n)
		}
		if !dst.Slice(reg).Equal(src.Slice(reg)) {
			t.Errorf("%s: frame landed wrong bytes", name)
		}
	}
}

// countingBody counts the Reads asked of a response body.
type countingBody struct {
	r     io.Reader
	reads int
}

func (c *countingBody) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// A strided destination is filled out of the window, not off the body
// run by run: an 8 MiB frame landing as 32,768 runs of 256 bytes costs
// about one body Read per window, as a contiguous one would.
func TestStridedBatchReadsTheBodyAWindowAtATime(t *testing.T) {
	const payload = 8 << 20
	src := tensor.New(tensor.Float32, payload/256, 64)
	src.FillRandDense(1, 1)
	fs := NewMemFS()
	if err := fs.PutTensor("/w", src); err != nil {
		t.Fatal(err)
	}
	rec := postBatch(NewServer(fs), batchBody(batchRequestEntry{path: "/w"}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	dst := tensor.New(tensor.Float32, payload/256, 128)
	at := tensor.Region{{Lo: 0, Hi: payload / 256}, {Lo: 32, Hi: 96}}
	q, err := newBatchQuery([]BatchEntry{{Path: "/w", Dst: dst, At: at}})
	if err != nil {
		t.Fatal(err)
	}
	q.request()
	body := &countingBody{r: bytes.NewReader(rec.Body.Bytes())}
	if err := q.receive(body); err != nil {
		t.Fatal(err)
	}
	if !dst.Slice(at).Equal(src) {
		t.Fatal("strided batch landed wrong bytes")
	}
	windows := (payload + responseWindowSize - 1) / responseWindowSize
	t.Logf("%d body reads for %d runs in %d windows", body.reads, payload/256, windows)
	if body.reads > windows+4 {
		t.Fatalf("%d body reads for %d runs, want at most %d", body.reads, payload/256, windows+4)
	}
}

// fuzzBatch is the fixed entry list FuzzBatchResponse answers: two
// adjacent row ranges of /a, which the server coalesces into one frame,
// and a strided range of /b landing in a strided region. Each call
// returns fresh destinations.
func fuzzBatch() []BatchEntry {
	a, b := tensor.New(tensor.Float32, 4, 4), tensor.New(tensor.Float32, 4, 4)
	return []BatchEntry{
		{Path: "/a", Reg: rows(0, 2, 4), Dst: a, At: rows(0, 2, 4)},
		{Path: "/a", Reg: rows(2, 4, 4), Dst: a, At: rows(2, 4, 4)},
		{Path: "/b", Reg: tensor.Region{{Lo: 0, Hi: 4}, {Lo: 1, Hi: 3}}, Dst: b, At: tensor.Region{{Lo: 0, Hi: 4}, {Lo: 2, Hi: 4}}},
	}
}

// receiveBatch runs the client's frame loop over stream as the response
// to a first attempt at entries.
func receiveBatch(entries []BatchEntry, stream []byte) (*batchQuery, error) {
	q, err := newBatchQuery(entries)
	if err != nil {
		return q, err
	}
	q.request()
	return q, q.receive(bytes.NewReader(stream))
}

// FuzzBatchResponse throws arbitrary response bodies at the store
// client's frame loop, through its window, for a fixed entry list. It
// never panics or allocates from a length the stream declares; it
// accepts a stream only when every frame's checksum verified, every
// entry landed once with the bytes the stream carried for it, and the
// body ends with the end frame; and it fails every strict prefix of a
// stream it accepts with a retryable io.ErrUnexpectedEOF.
func FuzzBatchResponse(f *testing.F) {
	fs := NewMemFS()
	for i, p := range []string{"/a", "/b"} {
		src := tensor.New(tensor.Float32, 4, 4)
		src.FillSeq(float64(100*i), 1)
		if err := fs.PutTensor(p, src); err != nil {
			f.Fatal(err)
		}
	}
	q, err := newBatchQuery(fuzzBatch())
	if err != nil {
		f.Fatal(err)
	}
	rec := postBatch(NewServer(fs), q.request())
	if rec.Code != http.StatusOK {
		f.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	valid := rec.Body.Bytes()
	f.Add(valid)
	for n := 0; n < len(valid); n++ {
		f.Add(valid[:n])
	}
	// The first frame carries entries 0 and 1: its header, then its
	// payload, then its CRC trailer.
	first := tensor.FrameStreamHeaderSize
	trailer := first + tensor.FrameHeaderSize + int(q.sizes[0]+q.sizes[1])
	patched := func(off int, patch []byte) []byte {
		b := bytes.Clone(valid)
		copy(b[off:], patch)
		return b
	}
	f.Add(patched(trailer, []byte{^valid[trailer]}))                      // a flipped CRC
	f.Add(patched(first+8, binary.LittleEndian.AppendUint64(nil, 1<<40))) // an oversize frame length
	f.Add(patched(first, binary.LittleEndian.AppendUint32(nil, 5)))       // an index out of range
	f.Add(append(bytes.Clone(valid), 0))                                  // a byte after the end frame
	// The first frame twice and the second never: as many entries
	// answered as asked, one of them not at all.
	frame1 := valid[first : trailer+tensor.FrameCRCSize]
	f.Add(cat(valid[:first], frame1, frame1, tensor.AppendEndFrame(nil)))

	f.Fuzz(func(t *testing.T, stream []byte) {
		entries := fuzzBatch()
		var err error
		if n := allocatedBy(func() { _, err = receiveBatch(entries, stream) }); n > 1<<20 {
			t.Fatalf("frame loop allocated %d bytes", n)
		}
		if err != nil {
			return
		}
		checkAcceptedResponse(t, entries, stream)
		for n := 0; n < len(stream); n++ {
			_, err := receiveBatch(fuzzBatch(), stream[:n])
			if !errors.Is(err, io.ErrUnexpectedEOF) || !retryable(err) {
				t.Fatalf("prefix of %d bytes of an accepted stream of %d: %v, want a retryable io.ErrUnexpectedEOF", n, len(stream), err)
			}
		}
	})
}

// checkAcceptedResponse decodes a response the client accepted with the
// frame format's own decoders and holds the client to it: every frame's
// CRC32C matches, every entry is covered by exactly one frame and holds
// that frame's bytes, and nothing follows the end frame.
func checkAcceptedResponse(t *testing.T, entries []BatchEntry, stream []byte) {
	t.Helper()
	r := bytes.NewReader(stream)
	if _, err := tensor.DecodeFrameStreamHeader(r); err != nil {
		t.Fatalf("accepted a stream with a bad header: %v", err)
	}
	landed := make([]bool, len(entries))
	for {
		h, err := tensor.DecodeFrameHeaderFrom(r)
		if err != nil {
			t.Fatalf("accepted a stream with a bad frame header: %v", err)
		}
		if h.End() {
			break
		}
		payload := make([]byte, h.Length)
		var trailer [tensor.FrameCRCSize]byte
		if _, err := io.ReadFull(r, payload); err != nil {
			t.Fatalf("accepted a stream with a cut payload: %v", err)
		}
		if _, err := io.ReadFull(r, trailer[:]); err != nil {
			t.Fatalf("accepted a stream with a cut trailer: %v", err)
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(trailer[:]) {
			t.Fatalf("accepted frame %+v whose checksum does not match", h)
		}
		for i := int(h.Index); i < int(h.Index)+int(h.Count); i++ {
			if landed[i] {
				t.Fatalf("accepted entry %d twice", i)
			}
			landed[i] = true
			got := entries[i].Dst.Slice(entries[i].At).Data()
			if !bytes.Equal(got, payload[:len(got)]) {
				t.Fatalf("entry %d holds other bytes than its frame carried", i)
			}
			payload = payload[len(got):]
		}
	}
	if r.Len() != 0 {
		t.Fatalf("accepted %d bytes after the end frame", r.Len())
	}
	for i, ok := range landed {
		if !ok {
			t.Fatalf("accepted a stream without entry %d", i)
		}
	}
}

// wireMigrateBatch is the kind of batch a reconfiguration sends: 148
// tensors, alternately whole and one strided range.
func wireMigrateBatch(t testing.TB) (*MemFS, []BatchEntry) {
	fs := NewMemFS()
	entries := make([]BatchEntry, 148)
	for i := range entries {
		path := fmt.Sprintf("/job/bench/model/dev3/block.%d/attn/qkv/weight", i)
		if err := fs.PutTensor(path, seqTensor(16, 12)); err != nil {
			t.Fatal(err)
		}
		entries[i] = BatchEntry{Path: path, Dst: tensor.New(tensor.Float32, 16, 12)}
		if i%2 == 1 {
			entries[i].Reg = tensor.Region{{Lo: 0, Hi: 16}, {Lo: 3, Hi: 9}}
			entries[i].At = tensor.Region{{Lo: 0, Hi: 16}, {Lo: 6, Hi: 12}}
		}
	}
	return fs, entries
}

// What a 148-entry /batch costs either end in allocations, beyond what
// net/http charges any request: a few growing slices between all the
// entries, on both ends. The budgets are the whole request's, so the
// per-entry share is a fraction of one; under the JSON protocol this
// replaced the parent's profile has about 9 per entry on the server and
// 6 on the client (EXPERIMENTS.md, "Binary requests, ...").
func TestBatchRoundTripAllocationBudget(t *testing.T) {
	const (
		serverBudget = 50  // measured 25: entries, paths, two range arenas, frames, the two pooled buffers' bookkeeping
		clientBudget = 140 // measured 106, of which 94 are what a one-entry batch costs: net/http's, mostly
	)
	fs, entries := wireMigrateBatch(t)
	srv := NewServer(fs)

	// Server: the handler alone, on a request body held in memory.
	reqs := make([]batchRequestEntry, len(entries))
	for i, e := range entries {
		reqs[i] = batchRequestEntry{path: e.Path, reg: e.Reg}
	}
	body := batchBody(reqs...)
	var canned []byte
	serve := func() {
		rec := httptest.NewRecorder()
		rec.Body = bytes.NewBuffer(make([]byte, 0, 256<<10))
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		canned = rec.Body.Bytes()
	}
	base := testing.AllocsPerRun(20, func() {
		rec := httptest.NewRecorder()
		rec.Body = bytes.NewBuffer(make([]byte, 0, 256<<10))
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/batch", bytes.NewReader(body)))
	})
	n := testing.AllocsPerRun(20, serve) - base
	t.Logf("server: %v allocations for %d entries beyond a refused request's %v", n, len(entries), base)
	if n > serverBudget {
		t.Errorf("server: a %d-entry batch allocates %v times beyond a refused request's %v, budget %d", len(entries), n, base, serverBudget)
	}

	// Client: a whole BatchQueryInto against a server that replays the
	// response, so the process-wide count is the client's and net/http's.
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write(canned)
	}))
	defer hs.Close()
	c := &Client{Base: hs.URL}
	query := func() {
		if _, err := c.BatchQueryInto(context.Background(), entries); err != nil {
			t.Fatal(err)
		}
	}
	one := []BatchEntry{{Path: "/x", Dst: tensor.New(tensor.Float32, 1)}}
	canned1 := func() []byte {
		fs := NewMemFS()
		_ = fs.PutTensor("/x", seqTensor(1))
		rec := postBatch(NewServer(fs), batchBody(batchRequestEntry{path: "/x"}))
		return rec.Body.Bytes()
	}()
	hs1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write(canned1)
	}))
	defer hs1.Close()
	c1 := &Client{Base: hs1.URL}
	perRequest := testing.AllocsPerRun(20, func() {
		if _, err := c1.BatchQueryInto(context.Background(), one); err != nil {
			t.Fatal(err)
		}
	})
	n = testing.AllocsPerRun(20, query)
	t.Logf("client: %v allocations for %d entries, %v for one", n, len(entries), perRequest)
	if n > clientBudget {
		t.Errorf("client: a %d-entry batch allocates %v times, budget %d", len(entries), n, clientBudget)
	}
	if perEntry := (n - perRequest) / float64(len(entries)-1); perEntry > 0.25 {
		t.Errorf("client: %v allocations per extra entry, want none", perEntry)
	}
	for i, e := range entries {
		want, _ := fs.GetTensor(e.Path)
		at := e.At
		if at == nil {
			at = tensor.FullRegion(want.Shape())
		}
		reg := e.Reg
		if reg == nil {
			reg = tensor.FullRegion(want.Shape())
		}
		if !e.Dst.Slice(at).Equal(want.Slice(reg)) {
			t.Fatalf("entry %d landed wrong bytes", i)
		}
	}
}

// randomRegion draws a well-formed region of the given rank, or nil.
func randomRegion(rng *rand.Rand, rank int) tensor.Region {
	if rank == 0 {
		return nil
	}
	reg := make(tensor.Region, rank)
	for i := range reg {
		lo := rng.Intn(1 << 20)
		reg[i] = tensor.Range{Lo: lo, Hi: lo + 1 + rng.Intn(1<<20)}
	}
	return reg
}

// decode(encode(x)) == x, for both requests, over whatever a client can
// say: regions of every rank up to the cap, nil regions, links, several
// sources and this store between them.
func TestRequestCodecRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for round := 0; round < 200; round++ {
		entries := make([]batchRequestEntry, 1+rng.Intn(40))
		for i := range entries {
			entries[i] = batchRequestEntry{path: fmt.Sprintf("/job/%d/t%d", round, rng.Intn(1000)), reg: randomRegion(rng, rng.Intn(maxTensorRank+1))}
		}
		got, re := decodeBatchBytes(batchBody(entries...))
		if re != nil {
			t.Fatalf("round %d: batch refused: %s", round, re.msg)
		}
		if !reflect.DeepEqual(got, entries) {
			t.Fatalf("round %d: batch decoded to\n%v\nwant\n%v", round, got, entries)
		}

		sources := []string{"", "http://10.0.0.1:7070", "https://store-b.example:7443", "http://[::1]:7070"}[:2+rng.Intn(3)]
		items := make([]AssembleItem, 1+rng.Intn(12))
		for i := range items {
			rank := 1 + rng.Intn(maxTensorRank)
			it := AssembleItem{Path: fmt.Sprintf("/job/%d/next/t%d", round, i), DType: tensor.Float32, Shape: make([]int, rank)}
			for d := range it.Shape {
				it.Shape[d] = 1 + rng.Intn(3)
			}
			it.Shape[rng.Intn(rank)] = 2 + 2*rng.Intn(8) // one even dimension to split
			if rng.Intn(4) == 0 {
				it.Link = fmt.Sprintf("/job/%d/model/t%d", round, i)
				items[i] = it
				continue
			}
			// Two halves along the even dimension, or the whole tensor.
			src := func() string { return sources[rng.Intn(len(sources))] }
			if rng.Intn(3) == 0 {
				it.Fetch = []AssembleFetch{{Source: src(), Path: "/whole"}}
				items[i] = it
				continue
			}
			split := 0
			for d, n := range it.Shape {
				if n%2 == 0 && n > 1 {
					split = d
				}
			}
			for half := 0; half < 2; half++ {
				at := tensor.FullRegion(it.Shape)
				n := it.Shape[split] / 2
				at[split] = tensor.Range{Lo: half * n, Hi: (half + 1) * n}
				f := AssembleFetch{Source: src(), Path: fmt.Sprintf("/half%d", half), At: at}
				if rng.Intn(2) == 0 {
					f.Reg = at.Shift(make([]int, rank)) // same shape, its own slice
					for d := range f.Reg {
						off := rng.Intn(100)
						f.Reg[d] = tensor.Range{Lo: f.Reg[d].Lo + off, Hi: f.Reg[d].Hi + off}
					}
				}
				it.Fetch = append(it.Fetch, f)
			}
			items[i] = it
		}
		body, err := encodeAssembleRequest(items)
		if err != nil {
			t.Fatal(err)
		}
		gotItems, re := decodeAssembleBytes(body)
		if re != nil {
			t.Fatalf("round %d: assemble refused: %s", round, re.msg)
		}
		if !reflect.DeepEqual(gotItems, items) {
			t.Fatalf("round %d: assemble decoded to\n%+v\nwant\n%+v", round, gotItems, items)
		}
	}
}

// Runs of directWriteSize or more bypass the response buffer; the frames
// around them must come out in order and checksum all the same.
func TestBatchLargeRunsBypassTheResponseBuffer(t *testing.T) {
	fs := NewMemFS()
	big := tensor.New(tensor.Float32, 64, 512) // 128 KiB, rows of 2 KiB
	big.FillRandDense(3, 1)
	small := seqTensor(4, 4)
	for p, tn := range map[string]*tensor.Tensor{"/big": big, "/small": small} {
		if err := fs.PutTensor(p, tn); err != nil {
			t.Fatal(err)
		}
	}
	hs := httptest.NewServer(NewServer(fs))
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client()}
	half := tensor.Region{{Lo: 16, Hi: 48}, {Lo: 0, Hi: 512}}  // 64 KiB, contiguous
	cols := tensor.Region{{Lo: 0, Hi: 64}, {Lo: 128, Hi: 256}} // strided, 512-byte runs
	dsts := []*tensor.Tensor{tensor.New(tensor.Float32, 4, 4), tensor.New(tensor.Float32, 64, 512),
		tensor.New(tensor.Float32, 4, 4), tensor.New(tensor.Float32, 64, 512), tensor.New(tensor.Float32, 64, 512)}
	st, err := c.BatchQueryInto(context.Background(), []BatchEntry{
		{Path: "/small", Dst: dsts[0]},
		{Path: "/big", Dst: dsts[1]},
		{Path: "/small", Dst: dsts[2]},
		{Path: "/big", Reg: half, Dst: dsts[3], At: half},
		{Path: "/big", Reg: cols, Dst: dsts[4], At: cols},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2*64 + 128<<10 + 64<<10 + 32<<10); st.Bytes != want || st.Frames != 5 {
		t.Fatalf("stats %+v, want %d bytes in 5 frames", st, want)
	}
	if !dsts[0].Equal(small) || !dsts[2].Equal(small) || !dsts[1].Equal(big) ||
		!dsts[3].Slice(half).Equal(big.Slice(half)) || !dsts[4].Slice(cols).Equal(big.Slice(cols)) {
		t.Fatal("a batch mixing buffered and direct runs landed wrong bytes")
	}
}
