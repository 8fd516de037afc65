package rt

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"f90y/internal/faults"
)

func testCkpt() *Checkpoint {
	return &Checkpoint{
		Schema:  CkptSchema,
		Machine: "cm2",
		NextOp:  3,
		Flops:   42,
		Scalars: map[string]float64{"i": 7},
		Kinds:   nil,
		Arrays:  map[string]CkptArray{"a": {Ext: []int{2}, Lo: []int{1}, Data: []float64{1.5, -2.25}}},
	}
}

// bigCkpt is a store of arrays×elems values, each distinct, the size
// class the server spills (serve_durable: 42 arrays of 192×192).
func bigCkpt(arrays, elems int) *Checkpoint {
	ck := &Checkpoint{
		Schema:  CkptSchema,
		Machine: "cm2",
		Scalars: map[string]float64{"dt": 90, "i": 2},
		Arrays:  map[string]CkptArray{},
	}
	for a := 0; a < arrays; a++ {
		data := make([]float64, elems)
		for i := range data {
			data[i] = float64(a) + float64(i)/float64(elems)
		}
		ck.Arrays[fmt.Sprintf("a%02d", a)] = CkptArray{Ext: []int{elems}, Lo: []int{1}, Data: data}
	}
	return ck
}

// sealCkpt appends the integrity trailer a writer would put after body.
func sealCkpt(body []byte) []byte {
	return append(append([]byte(nil), body...), fmt.Sprintf("\n%s%08x\n", ckptTrailer, crc32.ChecksumIEEE(body))...)
}

// ckptBody strips a valid file's trailer.
func ckptBody(t testing.TB, file []byte) []byte {
	t.Helper()
	body, err := checkCkptTrailer(file)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func mustEncode(t testing.TB, ck *Checkpoint) []byte {
	t.Helper()
	data, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sameBits compares two snapshots' stores by IEEE bit pattern, so NaNs
// compare equal to themselves and -0.0 differs from +0.0.
func sameBits(t *testing.T, want, got *Checkpoint) {
	t.Helper()
	if len(got.Scalars) != len(want.Scalars) || len(got.Arrays) != len(want.Arrays) {
		t.Fatalf("store has %d scalars / %d arrays, want %d / %d",
			len(got.Scalars), len(got.Arrays), len(want.Scalars), len(want.Arrays))
	}
	for name, v := range want.Scalars {
		if g, ok := got.Scalars[name]; !ok || math.Float64bits(g) != math.Float64bits(v) {
			t.Errorf("scalar %q = %016x, want %016x", name, math.Float64bits(g), math.Float64bits(v))
		}
	}
	for name, a := range want.Arrays {
		g, ok := got.Arrays[name]
		if !ok || len(g.Data) != len(a.Data) {
			t.Errorf("array %q: %d elements (present %v), want %d", name, len(g.Data), ok, len(a.Data))
			continue
		}
		if fmt.Sprint(g.Kind, g.Ext, g.Lo) != fmt.Sprint(a.Kind, a.Ext, a.Lo) {
			t.Errorf("array %q shape %v %v %v, want %v %v %v", name, g.Kind, g.Ext, g.Lo, a.Kind, a.Ext, a.Lo)
		}
		for i := range a.Data {
			if math.Float64bits(g.Data[i]) != math.Float64bits(a.Data[i]) {
				t.Errorf("array %q[%d] = %016x, want %016x", name, i, math.Float64bits(g.Data[i]), math.Float64bits(a.Data[i]))
			}
		}
	}
}

// TestCheckpointTrailerRoundTrip: Write appends the CRC trailer,
// ReadCheckpoint verifies it, and the snapshot round-trips intact;
// Write puts exactly Encode's bytes on disk and reports their count,
// and Encode builds them in one buffer of exactly their size.
func TestCheckpointTrailerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.ckpt")
	n, err := testCkpt().Write(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), ckptTrailer) {
		t.Fatalf("written checkpoint carries no %q trailer", ckptTrailer)
	}
	if n != len(data) {
		t.Errorf("Write reported %d bytes, the file has %d", n, len(data))
	}
	for _, ck := range []*Checkpoint{testCkpt(), bigCkpt(3, 5000)} {
		if enc := mustEncode(t, ck); cap(enc) != len(enc) {
			t.Errorf("Encode: %d bytes in a buffer of %d", len(enc), cap(enc))
		}
	}
	if enc := mustEncode(t, testCkpt()); !bytes.Equal(enc, data) {
		t.Errorf("Encode and Write disagree:\n%q\n%q", enc, data)
	}
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.NextOp != 3 || ck.Flops != 42 || ck.Scalars["i"] != 7 || ck.Arrays["a"].Data[1] != -2.25 {
		t.Errorf("round trip mangled the snapshot: %+v", ck)
	}
}

// TestCheckpointValuesAreRawBits: every value class JSON could not
// carry (NaN with a payload, ±Inf) or would not carry exactly (-0.0, a
// denormal) survives as a scalar and as an array element, bit for bit,
// and a long array keeps its order.
func TestCheckpointValuesAreRawBits(t *testing.T) {
	special := []float64{
		math.Float64frombits(0x7ff8dead0000beef), // quiet NaN with payload
		math.Float64frombits(0xfff0000000000001), // signalling NaN, sign set
		math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, 1e-310,
		math.MaxFloat64, 0.1,
	}
	ck := &Checkpoint{Schema: CkptSchema, Scalars: map[string]float64{}, Arrays: map[string]CkptArray{}}
	for i, v := range special {
		ck.Scalars[fmt.Sprintf("s%d", i)] = v
	}
	long := make([]float64, 3*(64<<10)/8+5)
	for i := range long {
		long[i] = special[i%len(special)] + float64(i)
	}
	ck.Arrays["special"] = CkptArray{Ext: []int{len(special)}, Lo: []int{1}, Data: special}
	ck.Arrays["long"] = CkptArray{Ext: []int{len(long)}, Lo: []int{0}, Data: long}
	got, err := decodeCheckpoint(mustEncode(t, ck))
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, ck, got)
}

// TestCheckpointEmptyStores: an empty store and zero-length arrays
// round-trip (a zero-length array is present, not dropped).
func TestCheckpointEmptyStores(t *testing.T) {
	for name, ck := range map[string]*Checkpoint{
		"empty":   {Schema: CkptSchema},
		"zerolen": {Schema: CkptSchema, Scalars: map[string]float64{"x": 1}, Arrays: map[string]CkptArray{"e": {Ext: []int{0}, Lo: []int{1}}, "f": {Ext: []int{1}, Lo: []int{1}, Data: []float64{2}}}},
	} {
		got, err := decodeCheckpoint(mustEncode(t, ck))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameBits(t, ck, got)
	}
}

// TestCheckpointTruncated: a file cut off anywhere (torn write) is
// reported as ErrCkptTruncated — never a panic, a partial store, or a
// bare decode error. Every byte of a small file, and the seams of a
// large one.
func TestCheckpointTruncated(t *testing.T) {
	check := func(data []byte, keep int) {
		t.Helper()
		ck, rerr := decodeCheckpoint(data[:keep])
		if ck != nil {
			t.Errorf("truncated to %d bytes: decoded a store", keep)
		}
		if !errors.Is(rerr, ErrCkptTruncated) {
			t.Errorf("truncated to %d bytes: err = %v, want ErrCkptTruncated", keep, rerr)
		}
		if errors.Is(rerr, ErrCkptCorrupt) {
			t.Errorf("truncated to %d bytes also matched ErrCkptCorrupt; sentinels must be distinct", keep)
		}
	}
	small := mustEncode(t, testCkpt())
	for keep := 0; keep < len(small); keep++ {
		check(small, keep)
	}
	big := mustEncode(t, bigCkpt(4, 20000))
	headEnd := bytes.IndexByte(big, '\n') + 1
	payloadEnd := len(ckptBody(t, big))
	for _, seam := range []int{headEnd, headEnd + 2*8, headEnd + 20000*8, len(big) / 2, payloadEnd, payloadEnd + 1, len(big)} {
		for keep := seam - 1; keep <= seam+1 && keep < len(big); keep++ {
			check(big, keep)
		}
	}
	// Through the file API too, so the path lands in the message.
	path := filepath.Join(t.TempDir(), "ck.ckpt")
	if err := os.WriteFile(path, small[:len(small)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); !errors.Is(err, ErrCkptTruncated) || !strings.Contains(err.Error(), path) {
		t.Errorf("ReadCheckpoint of a torn file: %v", err)
	}
}

// TestCheckpointCorrupt: a complete file with one bit flipped after
// commit — in the header or in the payload — fails the CRC with
// ErrCkptCorrupt.
func TestCheckpointCorrupt(t *testing.T) {
	data := mustEncode(t, testCkpt())
	headEnd := bytes.IndexByte(data, '\n')
	for name, at := range map[string]int{"header": headEnd / 3, "payload": headEnd + 1 + 11} {
		bad := append([]byte(nil), data...)
		bad[at] ^= 0x40 // trailer intact
		_, rerr := decodeCheckpoint(bad)
		if !errors.Is(rerr, ErrCkptCorrupt) {
			t.Errorf("bit-flipped %s: err = %v, want ErrCkptCorrupt", name, rerr)
		}
		if errors.Is(rerr, ErrCkptTruncated) {
			t.Errorf("bit-flipped %s also matched ErrCkptTruncated; sentinels must be distinct", name)
		}
	}
}

// TestCheckpointHeaderPayloadMismatch: files whose CRC is valid but
// whose header and payload disagree are corrupt, and a header that
// claims more values than the file holds is refused before anything of
// that size is allocated.
func TestCheckpointHeaderPayloadMismatch(t *testing.T) {
	body := ckptBody(t, mustEncode(t, bigCkpt(2, 100000)))
	rewrite := func(old, new string) []byte {
		t.Helper()
		if bytes.Count(body, []byte(old)) != 1 {
			t.Fatalf("header does not hold %q exactly once", old)
		}
		return sealCkpt(bytes.Replace(body, []byte(old), []byte(new), 1))
	}
	firstN := `"lo":[1],"n":100000},{"name":"a01"`
	for name, file := range map[string][]byte{
		"one over":   rewrite(firstN, `"lo":[1],"n":100001},{"name":"a01"`),
		"sum over":   rewrite(firstN, `"lo":[1],"n":200000},{"name":"a01"`),
		"huge":       rewrite(firstN, `"lo":[1],"n":1099511627776},{"name":"a01"`),
		"negative":   rewrite(firstN, `"lo":[1],"n":-1},{"name":"a01"`),
		"one under":  rewrite(firstN, `"lo":[1],"n":99999},{"name":"a01"`),
		"trailing":   sealCkpt(append(append([]byte(nil), body...), 0, 0, 0, 0, 0, 0, 0, 0)),
		"odd tail":   sealCkpt(append(append([]byte(nil), body...), 7)),
		"no scalars": rewrite(`"scalar_names":["dt","i"]`, `"scalar_names":[]`),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ck, err := decodeCheckpoint(file)
		runtime.ReadMemStats(&after)
		if ck != nil || !errors.Is(err, ErrCkptCorrupt) || errors.Is(err, ErrCkptTruncated) {
			t.Errorf("%s: ck %v, err = %v, want ErrCkptCorrupt", name, ck != nil, err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(file)+64<<10); got > limit {
			t.Errorf("%s: decoding allocated %d bytes for a %d-byte file", name, got, len(file))
		}
	}
}

// TestCheckpointRejectsV1: the JSON-bodied v1 format has no reader; a
// v1 file is refused by schema, naming both versions, not misreported
// as damage.
func TestCheckpointRejectsV1(t *testing.T) {
	v1 := sealCkpt([]byte(`{"schema":"f90y-ckpt/v1","machine":"cm2","next_op":3,"flops":42,"node_calls":0,"comm_calls":0,` +
		`"host_cycles":0,"pe_cycles":0,"comm_cycles":0,"scalars":{"i":7},"kinds":null,` +
		`"arrays":{"a":{"kind":0,"ext":[2],"lo":[1],"data":[1.5,-2.25]}}}`))
	ck, err := decodeCheckpoint(v1)
	if ck != nil || err == nil {
		t.Fatalf("v1 file decoded: %v, %v", ck, err)
	}
	if !strings.Contains(err.Error(), "f90y-ckpt/v1") || !strings.Contains(err.Error(), "f90y-ckpt/v2") {
		t.Errorf("v1 rejection does not name both schemas: %v", err)
	}
	if errors.Is(err, ErrCkptTruncated) || errors.Is(err, ErrCkptCorrupt) {
		t.Errorf("v1 rejection reported as file damage: %v", err)
	}
}

// TestCheckpointWriteMangled: Write passes its bytes through the I/O
// injector, so a torn write lands as a file that reads back as
// ErrCkptTruncated, and the count Write reports is what reached disk.
func TestCheckpointWriteMangled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.ckpt")
	inj := faults.NewIO(&faults.IOPlan{Seed: 1, Torn: 1})
	n, err := testCkpt().Write(path, inj)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(mustEncode(t, testCkpt())) / 2; n != want {
		t.Errorf("torn Write reported %d bytes, want half of the encoding, %d", n, want)
	}
	if _, err := ReadCheckpoint(path); !errors.Is(err, ErrCkptTruncated) {
		t.Errorf("ReadCheckpoint of a torn Write: %v, want ErrCkptTruncated", err)
	}
	if st := inj.Stats(); st.Writes != 1 || st.Torn != 1 {
		t.Errorf("injector saw %+v, want one torn write", st)
	}
}

// TestCheckpointWriteLeavesNoTemp: the atomic write cleans its
// temporary file up on success, and on a failed encode leaves neither
// the temporary nor a partial target.
func TestCheckpointWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.ckpt")
	if _, err := testCkpt().Write(path, nil); err != nil {
		t.Fatal(err)
	}
	bad := testCkpt()
	bad.HostCycles = math.NaN() // a cycle bucket is header JSON: unencodable
	if _, err := bad.Write(filepath.Join(dir, "bad.ckpt"), nil); err == nil {
		t.Error("Write of an unencodable header succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "ck.ckpt" {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Errorf("directory after Write: %v, want exactly [ck.ckpt]", names)
	}
}

// FuzzReadCheckpoint: no byte string — sealed with a valid trailer or
// not — panics the reader, over-allocates, or yields a store together
// with an error; whatever decodes re-encodes to a file that decodes,
// and applies to a store shaped like its own header without a panic —
// view records included, whatever they name.
func FuzzReadCheckpoint(f *testing.F) {
	small := mustEncode(f, testCkpt())
	body := ckptBody(f, small)
	f.Add(small, false)
	f.Add(small[:len(small)/2], false)
	f.Add(body, true)
	f.Add(body[:len(body)-3], true)
	f.Add(append(append([]byte(nil), body...), 1, 2, 3, 4, 5, 6, 7, 8), true)
	f.Add(bytes.Replace(body, []byte(`"n":2`), []byte(`"n":1099511627776`), 1), true)
	f.Add(bytes.Replace(body, []byte(`"n":2`), []byte(`"n":-2`), 1), true)
	f.Add(ckptBody(f, mustEncode(f, &Checkpoint{Schema: CkptSchema})), true)
	f.Add([]byte(`{"schema":"f90y-ckpt/v1","scalars":{"i":7},"arrays":{}}`), true)
	f.Add([]byte("{\"schema\":\"f90y-ckpt/v2\"}\n"), true)
	viewed := testCkpt()
	viewed.Arrays["t"] = CkptArray{Ext: []int{2}, Lo: []int{1}, ViewOf: "a", Rot: []int{1}}
	viewBody := ckptBody(f, mustEncode(f, viewed))
	f.Add(viewBody, true)
	f.Add(bytes.Replace(viewBody, []byte(`"view_of":"a"`), []byte(`"view_of":"t"`), 1), true)
	f.Add(bytes.Replace(viewBody, []byte(`"view_of":"a"`), []byte(`"view_of":"z"`), 1), true)
	f.Add(bytes.Replace(viewBody, []byte(`"rot":[1]`), []byte(`"rot":[1,7]`), 1), true)
	f.Add(bytes.Replace(viewBody, []byte(`"rot":[1]`), []byte(`"rot":[-9]`), 1), true)
	f.Add(bytes.Replace(viewBody, []byte(`"rot":[1],"n":0`), []byte(`"rot":[1],"n":2`), 1), true)
	f.Fuzz(func(t *testing.T, data []byte, seal bool) {
		if seal {
			data = sealCkpt(data)
		}
		ck, err := decodeCheckpoint(data)
		if (ck == nil) == (err == nil) {
			t.Fatalf("decode returned ck %v with err %v", ck != nil, err)
		}
		if err != nil {
			return
		}
		values := len(ck.Scalars)
		for _, a := range ck.Arrays {
			values += len(a.Data)
		}
		if 8*values > len(data) {
			t.Fatalf("decoded %d values from a %d-byte file", values, len(data))
		}
		st := &Store{Arrays: map[string]*Array{}, Scalars: ck.Scalars}
		for name, a := range ck.Arrays {
			st.Arrays[name] = &Array{Kind: a.Kind, Ext: a.Ext, Lo: a.Lo, ShiftView: a.ViewOf != ""}
			if a.ViewOf == "" {
				st.Arrays[name].Data = make([]float64, len(a.Data))
			}
		}
		if err := ck.ApplyStore(st); err != nil && !errors.Is(err, ErrCkptCorrupt) {
			t.Fatalf("ApplyStore onto the header's own shapes: %v", err)
		}
		again, err := ck.Encode()
		if err != nil {
			return // e.g. a NaN cycle bucket cannot be re-encoded; values can
		}
		if _, err := decodeCheckpoint(again); err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
	})
}

// The benchmark pair is sized like a serve_durable spill: 42 arrays of
// 192×192 float64 (12.4 MB of store).
func BenchmarkCheckpointEncode(b *testing.B) {
	ck := bigCkpt(42, 192*192)
	data := mustEncode(b, ck)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ck.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointDecode(b *testing.B) {
	data := mustEncode(b, bigCkpt(42, 192*192))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeCheckpoint(data); err != nil {
			b.Fatal(err)
		}
	}
}
