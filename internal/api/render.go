package api

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/serve"
)

// renderChunk bounds each write of a streamed GET /v1/allocation body.
const renderChunk = 32 << 10

var (
	jobsOpen = []byte(`{"jobs":{`)
	comma    = []byte{','}
	// chunkPool recycles the renderChunk-sized write buffers of scans.
	chunkPool = sync.Pool{New: func() any {
		b := make([]byte, 0, renderChunk)
		return &b
	}}
)

// rowFragment is one job's rendered allocation entry,
// `"<id>":{"id":…,"shares":[…],"aggregate":…}` plus a trailing newline,
// valid for exactly the share row it was rendered from. buf[:len(buf)-1]
// is the entry a scan writes; buf[val:] is the GET /v1/jobs/{id}/shares
// body.
type rowFragment struct {
	// row is the rendered row itself, not its address: holding it keeps
	// the row's backing array alive, so no other row can reuse the
	// address while the fragment is memoized.
	row []float64
	buf []byte
	val int
}

// renderMemo memoizes each job's rendered fragment keyed on the identity
// of its share row (see sameRow), so a read re-encodes only the rows a
// commit replaced. It holds at most one fragment per job ID; scans prune
// IDs gone from the allocation, and point reads prune once the memo
// outgrows twice the live job count seen at the last prune.
type renderMemo struct {
	mu    sync.Mutex
	frags map[string]rowFragment
	live  int
	// order is the last scan's sorted job IDs (see sortedIDs); never
	// written once stored.
	order []string
}

func newRenderMemo() *renderMemo {
	return &renderMemo{frags: map[string]rowFragment{}}
}

// sameRow reports whether a and b are the same share row: same backing
// array start and same length. Identity implies equal contents because
// share rows are immutable once published (scheduler.Resolve): a
// mutation replaces a row, it never writes one in place.
func sameRow(a, b []float64) bool {
	return unsafe.SliceData(a) == unsafe.SliceData(b) && len(a) == len(b)
}

// fragment returns id's fragment for row, rendering and memoizing it on a
// miss. overgrown reports that the memo now holds more than twice the
// live job count seen at its last prune.
func (m *renderMemo) fragment(id string, row []float64) (f rowFragment, overgrown bool, err error) {
	m.mu.Lock()
	f, ok := m.frags[id]
	m.mu.Unlock()
	if ok && sameRow(f.row, row) {
		return f, false, nil
	}
	// json.Marshal escapes and formats exactly as the json.Encoder that
	// rendered these documents whole did, map keys included.
	key, err := json.Marshal(id)
	if err != nil {
		return f, false, err
	}
	val, err := json.Marshal(sharesResponse(id, row))
	if err != nil {
		return f, false, err
	}
	buf := make([]byte, 0, len(key)+len(val)+2)
	buf = append(append(append(append(buf, key...), ':'), val...), '\n')
	f = rowFragment{row: row, buf: buf, val: len(key) + 1}
	m.mu.Lock()
	m.frags[id] = f
	overgrown = len(m.frags) > 2*m.live+64
	m.mu.Unlock()
	return f, overgrown, nil
}

// prune drops the fragments of jobs absent from alloc.
func (m *renderMemo) prune(alloc map[string][]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.live = len(alloc)
	if len(m.frags) <= len(alloc) {
		return
	}
	for id := range m.frags {
		if _, ok := alloc[id]; !ok {
			delete(m.frags, id)
		}
	}
}

// sortedIDs returns alloc's job IDs in encoding/json's map-key order. It
// reuses the previous scan's order when the ID set is unchanged, so
// repeated reads of one version skip the sort.
func (m *renderMemo) sortedIDs(alloc map[string][]float64) []string {
	m.mu.Lock()
	order := m.order
	m.mu.Unlock()
	if len(order) == len(alloc) && containsAll(alloc, order) {
		return order
	}
	ids := make([]string, 0, len(alloc))
	for id := range alloc {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, strings.Compare)
	m.mu.Lock()
	m.order = ids
	m.mu.Unlock()
	return ids
}

// containsAll reports whether every ID in ids is a key of alloc.
func containsAll(alloc map[string][]float64, ids []string) bool {
	for _, id := range ids {
		if _, ok := alloc[id]; !ok {
			return false
		}
	}
	return true
}

// allocView is the content of one GET /v1/allocation document.
type allocView struct {
	shares        map[string][]float64
	version       uint64
	policy        string
	phaseLag, hot int
}

// allocation reads the document's content from the backend. An engine
// serves all of it from one published snapshot, so the header describes
// exactly the shares it accompanies; other backends are read field by
// field.
func (s *Server) allocation(ctx context.Context) (allocView, error) {
	if eng, ok := s.sc.(*serve.Engine); ok {
		if err := ctx.Err(); err != nil {
			return allocView{}, err
		}
		snap := eng.Current()
		return allocView{snap.Shares, snap.Version, snap.Policy, snap.PhaseLag, snap.HotComponents}, nil
	}
	alloc, err := s.sc.Allocation(ctx)
	if err != nil {
		return allocView{}, err
	}
	v := allocView{shares: alloc}
	if vb, ok := s.sc.(Versioned); ok {
		// Read after the allocation: the version is at or after the map,
		// so a reader polling for "version >= X" never sees stale data.
		v.version = vb.SnapshotVersion()
	}
	if pr, ok := s.sc.(PhaseReporter); ok {
		v.phaseLag, v.hot = pr.PhaseInfo()
	}
	v.policy = s.sc.PolicyName()
	return v, nil
}

// writeAllocation streams v as the AllocationResponse JSON document,
// byte for byte what json.Encoder renders for it: job entries in
// encoding/json's map-key order, then the omitempty header fields.
func (s *Server) writeAllocation(w http.ResponseWriter, v allocView) {
	ids := s.memo.sortedIDs(v.shares)
	frags := make([][]byte, len(ids))
	var renderErr error
	for i, id := range ids {
		f, _, err := s.memo.fragment(id, v.shares[id])
		if err != nil {
			renderErr = err
			break
		}
		frags[i] = f.buf[:len(f.buf)-1]
	}
	if renderErr == nil {
		s.memo.prune(v.shares)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if renderErr != nil {
		// json.Encoder writes nothing for a document it cannot encode.
		return
	}
	chunk := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(chunk)
	cw := chunkWriter{w: w, buf: (*chunk)[:0]}
	cw.write(jobsOpen)
	for i, f := range frags {
		if i > 0 {
			cw.write(comma)
		}
		cw.write(f)
	}
	tail := append(make([]byte, 0, 128), '}')
	if v.version != 0 {
		tail = strconv.AppendUint(append(tail, `,"version":`...), v.version, 10)
	}
	if v.policy != "" {
		name, _ := json.Marshal(v.policy) // a string always marshals
		tail = append(append(tail, `,"policy":`...), name...)
	}
	if v.phaseLag != 0 {
		tail = strconv.AppendInt(append(tail, `,"phase_lag":`...), int64(v.phaseLag), 10)
	}
	if v.hot != 0 {
		tail = strconv.AppendInt(append(tail, `,"hot_components":`...), int64(v.hot), 10)
	}
	cw.write(append(tail, "}\n"...))
	cw.flush()
}

// chunkWriter coalesces small writes into writes of at most cap(buf)
// bytes, stopping at the first write error.
type chunkWriter struct {
	w   http.ResponseWriter
	buf []byte
	err error
}

func (c *chunkWriter) write(p []byte) {
	if len(c.buf)+len(p) > cap(c.buf) {
		c.flush()
		if len(p) > cap(c.buf) {
			if c.err == nil {
				_, c.err = c.w.Write(p)
			}
			return
		}
	}
	c.buf = append(c.buf, p...)
}

func (c *chunkWriter) flush() {
	if c.err == nil && len(c.buf) > 0 {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}
