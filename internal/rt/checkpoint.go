package rt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"f90y/internal/nir"
)

// CkptSchema identifies the snapshot format. Bump the version when the
// layout changes incompatibly; ReadCheckpoint rejects other schemas.
//
// A v2 file is a one-line JSON header (ckptHeader: every Checkpoint
// field but the store's values, plus the sorted scalar names and, per
// array sorted by name, kind/ext/lo/element count), '\n', the payload
// (each scalar, then each array's elements, in header order, as the
// eight little-endian bytes of the IEEE-754 bit pattern — so NaN
// payloads, -0.0, infinities and denormals survive), then ckptTrailer.
// DESIGN.md "Checkpoint/restart" has the layout byte by byte.
const CkptSchema = "f90y-ckpt/v2"

// ckptTrailer is the integrity trailer Write appends after the body
// (header line + payload): a newline, this prefix, the IEEE CRC-32 of
// the body as eight lowercase hex digits, and a final newline. A file
// that ends mid-body (torn write, lost tail) lacks the trailer and
// reads back as ErrCkptTruncated; a file whose trailer disagrees with
// its body reads back as ErrCkptCorrupt. The two are distinct sentinels
// so recovery can report what actually happened to the file.
const ckptTrailer = "#f90y-ckpt-crc32:"

// Checkpoint file integrity sentinels, matched with errors.Is.
var (
	// ErrCkptTruncated reports a checkpoint file with no (or a partial)
	// integrity trailer: the write was torn, or the tail was lost.
	ErrCkptTruncated = errors.New("checkpoint truncated")
	// ErrCkptCorrupt reports a checkpoint file whose body does not match
	// its integrity trailer: bits changed after the write committed.
	ErrCkptCorrupt = errors.New("checkpoint corrupt")
	// ErrCkptMachine reports an intact checkpoint taken on a different
	// machine model than the one asked to resume it. Not damage: the
	// file is fine, its cycle buckets just price another machine.
	ErrCkptMachine = errors.New("checkpoint is for another machine")
)

// CkptArray is one serialized CM array. The header carries its shape;
// Data travels in the payload as raw bits. A shift view (view.go) owns
// no memory and contributes no payload: its header entry names the
// array it reads as (ViewOf) and the rotation per dimension (Rot), with
// an element count of zero.
type CkptArray struct {
	Kind   nir.ScalarKind `json:"kind"`
	Ext    []int          `json:"ext"`
	Lo     []int          `json:"lo"`
	ViewOf string         `json:"view_of,omitempty"`
	Rot    []int          `json:"rot,omitempty"`
	Data   []float64      `json:"-"`
}

// ckptHeader is the JSON header line: the checkpoint's own tagged
// fields plus the payload's table of contents, in payload order.
type ckptHeader struct {
	*Checkpoint
	ScalarNames []string       `json:"scalar_names"`
	ArrayHdrs   []ckptArrayHdr `json:"array_hdrs"`
}

type ckptArrayHdr struct {
	Name string `json:"name"`
	CkptArray
	N int `json:"n"`
}

// Checkpoint is a versioned machine snapshot taken at a host-program
// boundary: the complete store, the accumulated output and cycle
// attribution, and the resume position. A run restarted from a
// checkpoint continues at the boundary and produces the same final
// store and totals as one that never stopped.
type Checkpoint struct {
	Schema  string `json:"schema"`
	Machine string `json:"machine,omitempty"` // "cm2" or "cm5"

	// Resume position: the next top-level host op to execute. When
	// InLoop is set, op NextOp is a serial DO whose iterations through
	// IterDone (inclusive, declared-space index) have completed.
	NextOp   int  `json:"next_op"`
	InLoop   bool `json:"in_loop,omitempty"`
	IterDone int  `json:"iter_done,omitempty"`

	// Accumulated execution state. Totals are carried explicitly —
	// the class maps need not sum to them (PE routine overheads are
	// attributed per routine, not per class).
	Output          []string           `json:"output,omitempty"`
	Flops           int64              `json:"flops"`
	NodeCalls       int                `json:"node_calls"`
	CommCalls       int                `json:"comm_calls"`
	HostCycles      float64            `json:"host_cycles"`
	PECycles        float64            `json:"pe_cycles"`
	CommCycles      float64            `json:"comm_cycles"`
	PEClassCycles   map[string]float64 `json:"pe_class_cycles,omitempty"`
	PERoutineCycles map[string]float64 `json:"pe_routine_cycles,omitempty"`
	// PELineCycles carries the source-line attribution; LineRef keys
	// serialize as "routine|file:line|class" strings.
	PELineCycles map[LineRef]float64 `json:"pe_line_cycles,omitempty"`
	// CommLineCycles carries the communication-network attribution under
	// the pseudo-routine CommRoutine, with Class "grid"/"router"/"reduce".
	CommLineCycles  map[LineRef]float64 `json:"comm_line_cycles,omitempty"`
	CommClassCycles map[string]float64  `json:"comm_class_cycles,omitempty"`
	HostClassCycles map[string]float64  `json:"host_class_cycles,omitempty"`
	// Extra carries machine-specific cycle buckets (the CM-5's
	// three-way split: "vu-cycles", "sparc-cycles", "degrade-cycles").
	Extra map[string]float64 `json:"extra,omitempty"`

	// The store; values travel in the payload, not the JSON header.
	Scalars map[string]float64        `json:"-"`
	Kinds   map[string]nir.ScalarKind `json:"kinds"`
	Arrays  map[string]CkptArray      `json:"-"`
}

// Checkpoint snapshots the store into a fresh Checkpoint (resume
// position and cycle state left zero for the machine layer to fill).
func (st *Store) Checkpoint() *Checkpoint {
	ck := &Checkpoint{
		Schema:  CkptSchema,
		Scalars: map[string]float64{},
		Kinds:   map[string]nir.ScalarKind{},
		Arrays:  map[string]CkptArray{},
	}
	for name, v := range st.Scalars {
		ck.Scalars[name] = v
	}
	for name, k := range st.Kinds {
		ck.Kinds[name] = k
	}
	for name, a := range st.Arrays {
		ca := CkptArray{
			Kind: a.Kind,
			Ext:  append([]int(nil), a.Ext...),
			Lo:   append([]int(nil), a.Lo...),
		}
		switch {
		case a.Data != nil:
			ca.Data = st.slab(len(a.Data))
			copy(ca.Data, a.Data)
		case a.view != nil:
			ca.ViewOf, ca.Rot = a.view.of, append([]int(nil), a.view.rot...)
		default:
			continue // a shift temporary nothing has written yet
		}
		ck.Arrays[name] = ca
	}
	return ck
}

// Release hands the array copies of a snapshot Store.Checkpoint took
// back to the arena, once its bytes are on disk; the snapshot must not
// be used afterwards.
func (ck *Checkpoint) Release() {
	for _, ca := range ck.Arrays {
		putSlab(ca.Data)
	}
	ck.Arrays = nil
}

// ApplyStore restores the snapshot's scalars and arrays into a store
// freshly allocated from the same program. Symbols present in the
// store but absent from the snapshot keep their zero initialization. A
// view record is restored as a view of its source as the source now
// stands; one that does not fit the program — an array the compiler did
// not mark, a source that is missing, is the array itself, has other
// extents or no memory, a rotation out of range — is ErrCkptCorrupt.
func (ck *Checkpoint) ApplyStore(st *Store) error {
	for name, v := range ck.Scalars {
		if _, ok := st.Scalars[name]; !ok {
			return fmt.Errorf("rt: checkpoint scalar %q not in program: %w", name, ErrUndefined)
		}
		st.Scalars[name] = v
	}
	for name, ca := range ck.Arrays {
		a, ok := st.Arrays[name]
		if !ok {
			return fmt.Errorf("rt: checkpoint array %q not in program: %w", name, ErrUndefined)
		}
		if ca.ViewOf != "" {
			continue // below, once every source has its memory
		}
		if a.Size() != len(ca.Data) {
			return fmt.Errorf("rt: checkpoint array %q has %d elements, program declares %d: %w",
				name, len(ca.Data), a.Size(), ErrShape)
		}
		if a.Data == nil {
			a.view, a.Data = nil, st.slab(len(ca.Data))
		}
		copy(a.Data, ca.Data)
	}
	for name, ca := range ck.Arrays {
		if ca.ViewOf == "" {
			continue
		}
		a, src := st.Arrays[name], st.Arrays[ca.ViewOf]
		fits := a.ShiftView && src != nil && src != a && src.Data != nil && len(ca.Data) == 0 &&
			len(ca.Rot) == len(a.Ext) && slices.Equal(a.Ext, src.Ext)
		for d := 0; fits && d < len(ca.Rot); d++ {
			fits = ca.Rot[d] >= 0 && ca.Rot[d] < a.Ext[d]
		}
		if !fits {
			return fmt.Errorf("rt: checkpoint array %q: view of %q rotated %v does not fit the program: %w",
				name, ca.ViewOf, ca.Rot, ErrCkptCorrupt)
		}
		a.setView(&view{of: ca.ViewOf, src: src, rot: append([]int(nil), ca.Rot...), gen: src.gen})
	}
	return nil
}

// Write serializes the checkpoint to path durably and atomically: the
// body plus a CRC-32 trailer stream into a temporary file in the same
// directory, the file is fsynced, renamed over path, and the directory
// is fsynced so the rename itself survives a crash. A reader therefore
// sees either the previous complete checkpoint or this one — never a
// mix — and a torn tail is detectable by the missing trailer.
func (ck *Checkpoint) Write(path string) error {
	return writeAtomic(path, ck.EncodeTo)
}

// Encode renders the checkpoint's durable byte form in memory: exactly
// the bytes Write puts on disk. Exposed so callers that must interpose
// on the bytes (the server's spill writes, which pass through the fault
// injector) produce exactly what Write would.
func (ck *Checkpoint) Encode() ([]byte, error) {
	values := len(ck.Scalars)
	for _, a := range ck.Arrays {
		values += len(a.Data)
	}
	buf := bytes.NewBuffer(make([]byte, 0, 8*values+ckptChunk))
	if err := ck.EncodeTo(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ckptChunk is how many bytes of array values EncodeTo converts at a time.
const ckptChunk = 64 << 10

// EncodeTo streams the checkpoint's durable byte form (see CkptSchema)
// to w: values are converted through one reused chunk and the CRC is
// updated as the bytes go out, so nothing the size of the store is
// built in memory.
func (ck *Checkpoint) EncodeTo(w io.Writer) error {
	h := ckptHeader{Checkpoint: ck}
	for name := range ck.Scalars {
		h.ScalarNames = append(h.ScalarNames, name)
	}
	sort.Strings(h.ScalarNames)
	for name, a := range ck.Arrays {
		h.ArrayHdrs = append(h.ArrayHdrs, ckptArrayHdr{Name: name, CkptArray: a, N: len(a.Data)})
	}
	sort.Slice(h.ArrayHdrs, func(i, j int) bool { return h.ArrayHdrs[i].Name < h.ArrayHdrs[j].Name })
	buf, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("rt: encode checkpoint: %w", err)
	}
	buf = append(buf, '\n')
	for _, name := range h.ScalarNames {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ck.Scalars[name]))
	}
	crc := crc32.NewIEEE()
	body := io.MultiWriter(crc, w)
	_, err = body.Write(buf)
	chunk := make([]byte, ckptChunk)
	for _, a := range h.ArrayHdrs {
		for vals := a.Data; len(vals) > 0 && err == nil; {
			k := min(len(vals), len(chunk)/8)
			for i, v := range vals[:k] {
				binary.LittleEndian.PutUint64(chunk[8*i:], math.Float64bits(v))
			}
			_, err = body.Write(chunk[:8*k])
			vals = vals[k:]
		}
	}
	if err == nil {
		_, err = fmt.Fprintf(w, "\n%s%08x\n", ckptTrailer, crc.Sum32())
	}
	if err != nil {
		return fmt.Errorf("rt: encode checkpoint: %w", err)
	}
	return nil
}

// WriteFileAtomic writes data to path via temp+fsync+rename(+dir
// fsync): after it returns, a crashed process leaves either the old
// file or the complete new one. Shared by every durable artifact in
// the system (checkpoints, spill files, journal compactions, cache
// entries) so the crash-safety discipline lives in one place.
func WriteFileAtomic(path string, data []byte) error {
	return writeAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// writeAtomic is WriteFileAtomic with the temporary file's content
// produced by fill, so a checkpoint can stream into it.
func writeAtomic(path string, fill func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("rt: write %s: %w", path, err)
	}
	if err := fill(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("rt: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("rt: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("rt: close %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("rt: commit %s: %w", path, err)
	}
	// Best effort: without the directory fsync the rename may be lost on
	// power failure, but the file pair is still never torn.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

// ReadCheckpoint loads and validates a snapshot written by Write. A
// file cut off before its integrity trailer returns an error wrapping
// ErrCkptTruncated; a complete file whose body fails its CRC (or whose
// header and payload disagree) returns one wrapping ErrCkptCorrupt.
// Both keep the path in the message so recovery logs name the casualty.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("rt: read checkpoint: %w", err)
	}
	ck, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("rt: checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// decodeCheckpoint is EncodeTo's inverse over a whole file image. The
// trailer matched before anything is decoded, so a header or payload
// that still does not fit is a writer bug — for the reader it is
// indistinguishable from corruption.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	body, err := checkCkptTrailer(data)
	if err != nil {
		return nil, err
	}
	// A v1 file is one JSON line whose keys land in no header field
	// of another type, so it decodes this far and is named below.
	head, payload, _ := bytes.Cut(body, []byte{'\n'})
	h := ckptHeader{Checkpoint: &Checkpoint{}}
	if err := json.Unmarshal(head, &h); err != nil {
		return nil, fmt.Errorf("decode header: %v: %w", err, ErrCkptCorrupt)
	}
	ck := h.Checkpoint
	if ck.Schema != CkptSchema {
		return nil, fmt.Errorf("has schema %q, want %q", ck.Schema, CkptSchema)
	}
	// Every count is bounded by the bytes actually present before
	// anything is allocated, so a lying header cannot ask for more
	// than the file.
	values, fits := len(h.ScalarNames), true
	for _, a := range h.ArrayHdrs {
		fits = fits && a.N >= 0 && a.N <= len(payload)/8 && (a.ViewOf == "" || a.N == 0)
		values += a.N
	}
	if !fits || 8*values != len(payload) {
		return nil, fmt.Errorf("header declares %d values, payload is %d bytes: %w", values, len(payload), ErrCkptCorrupt)
	}
	vals := make([]float64, values)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	ck.Scalars = make(map[string]float64, len(h.ScalarNames))
	for _, name := range h.ScalarNames {
		ck.Scalars[name], vals = vals[0], vals[1:]
	}
	ck.Arrays = make(map[string]CkptArray, len(h.ArrayHdrs))
	for _, a := range h.ArrayHdrs {
		if a.ViewOf == "" {
			a.Data, vals = vals[:a.N:a.N], vals[a.N:]
		}
		ck.Arrays[a.Name] = a.CkptArray
	}
	return ck, nil
}

// checkCkptTrailer splits data into the body and its trailer,
// verifying the CRC. The trailer is fixed-width, so a partial tail
// never parses as a valid trailer.
func checkCkptTrailer(data []byte) ([]byte, error) {
	// "\n" + prefix + 8 hex digits + "\n"
	tlen := 1 + len(ckptTrailer) + 8 + 1
	if len(data) < tlen {
		return nil, fmt.Errorf("%d bytes, shorter than the integrity trailer: %w", len(data), ErrCkptTruncated)
	}
	trailer := data[len(data)-tlen:]
	if trailer[0] != '\n' || !bytes.HasPrefix(trailer[1:], []byte(ckptTrailer)) || trailer[tlen-1] != '\n' {
		return nil, fmt.Errorf("missing integrity trailer (torn write): %w", ErrCkptTruncated)
	}
	var want uint32
	if _, err := fmt.Sscanf(string(trailer[1+len(ckptTrailer):tlen-1]), "%08x", &want); err != nil {
		return nil, fmt.Errorf("unreadable integrity trailer: %w", ErrCkptTruncated)
	}
	body := data[:len(data)-tlen]
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("body crc32 %08x, trailer says %08x: %w", got, want, ErrCkptCorrupt)
	}
	return body, nil
}
