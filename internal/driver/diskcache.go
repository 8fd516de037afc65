package driver

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"f90y/internal/fe"
	"f90y/internal/nir"
	"f90y/internal/rt"
)

// The on-disk artifact tier persists the partitioned program — all an
// Artifact holds (the machine is a run-time choice). The host IR and
// the symbol table carry interface values, which gob can only move with
// the concrete implementations registered. lower registers the types
// symbols need (nir.Type, shape.Shape); the host ops and their value
// trees are registered here.
func init() {
	gob.Register(fe.Assign{})
	gob.Register(fe.CallNode{})
	gob.Register(fe.Comm{})
	gob.Register(fe.If{})
	gob.Register(fe.While{})
	gob.Register(fe.DoSerial{})
	gob.Register(fe.Print{})
	gob.Register(fe.Stop{})
	gob.Register(nir.Binary{})
	gob.Register(nir.Unary{})
	gob.Register(nir.SVar{})
	gob.Register(nir.Const{})
	gob.Register(nir.FcnCall{})
	gob.Register(nir.AVar{})
	gob.Register(nir.StrConst{})
	gob.Register(nir.LocalUnder{})
	gob.Register(nir.Everywhere{})
	gob.Register(nir.Subscript{})
	gob.Register(nir.Section{})
}

// artMagic versions the cache-entry container: a one-line text header
// carrying the payload CRC and length, then the gob payload. Bump it
// when either the container or the gob schema changes incompatibly —
// unreadable entries are evicted and recompiled, never served.
const artMagic = "f90y-art/v2"

// errArtCorrupt reports a cache entry that failed its integrity or
// identity checks. Always an eviction, never a served artifact.
var errArtCorrupt = errors.New("artifact entry corrupt")

// diskArtifact is the persisted form of one compilation. Source and
// Fingerprint restate the cache key so a loaded entry can prove it
// answers the question asked — a truncated-hash filename collision or a
// stale file copied between state dirs is detected, not served.
type diskArtifact struct {
	Source      []byte // sha256 of the source text
	Fingerprint string // Fingerprint(cfg), the fp1| config rendering
	Program     *fe.Program
}

// DiskCacheStats counts disk-tier outcomes.
type DiskCacheStats struct {
	Hits    int64 `json:"hits"`    // compiles served from disk
	Misses  int64 `json:"misses"`  // disk probed, no usable entry
	Writes  int64 `json:"writes"`  // entries persisted
	Corrupt int64 `json:"corrupt"` // entries evicted for failed integrity/identity
	Errors  int64 `json:"errors"`  // I/O or encode failures (entry skipped)
}

// diskPath is the content-addressed entry path: the hex sha256 of the
// full key (source hash plus config fingerprint) under dir.
func diskPath(dir string, key Key) string {
	h := sha256.New()
	h.Write(key.Source[:])
	h.Write([]byte(key.Config))
	return filepath.Join(dir, hex.EncodeToString(h.Sum(nil))+".art")
}

// encodeArtifact renders the container bytes for one entry.
func encodeArtifact(key Key, prog *fe.Program) ([]byte, error) {
	var payload bytes.Buffer
	da := &diskArtifact{Source: key.Source[:], Fingerprint: key.Config, Program: prog}
	if err := gob.NewEncoder(&payload).Encode(da); err != nil {
		return nil, fmt.Errorf("driver: encode artifact: %w", err)
	}
	header := fmt.Sprintf("%s %08x %d\n", artMagic, crc32.ChecksumIEEE(payload.Bytes()), payload.Len())
	return append([]byte(header), payload.Bytes()...), nil
}

// decodeArtifact parses container bytes, verifying the header, length,
// and CRC before gob sees a single byte. Any failure — torn tail, bit
// rot, schema drift, key mismatch — returns errArtCorrupt (wrapped with
// the reason) so the caller evicts and recompiles.
func decodeArtifact(data []byte, key Key) (*fe.Program, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("no header line: %w", errArtCorrupt)
	}
	var crc uint32
	var plen int
	var magic string
	if _, err := fmt.Sscanf(string(data[:nl]), "%s %08x %d", &magic, &crc, &plen); err != nil || magic != artMagic {
		return nil, fmt.Errorf("bad header %q: %w", data[:nl], errArtCorrupt)
	}
	payload := data[nl+1:]
	if len(payload) != plen {
		return nil, fmt.Errorf("payload %d bytes, header says %d (torn write): %w", len(payload), plen, errArtCorrupt)
	}
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, fmt.Errorf("payload crc32 %08x, header says %08x: %w", got, crc, errArtCorrupt)
	}
	var da diskArtifact
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&da); err != nil {
		return nil, fmt.Errorf("gob decode: %v: %w", err, errArtCorrupt)
	}
	if !bytes.Equal(da.Source, key.Source[:]) || da.Fingerprint != key.Config {
		return nil, fmt.Errorf("entry answers a different key: %w", errArtCorrupt)
	}
	if da.Program == nil || da.Program.Syms == nil {
		return nil, fmt.Errorf("entry holds no program: %w", errArtCorrupt)
	}
	relinkRoutines(da.Program)
	return da.Program, nil
}

// relinkRoutines restores the pointer sharing gob flattens: every
// CallNode op points back into Program.Routines by name, so a restored
// program holds one copy of each routine like a freshly compiled one.
// Dispatch is by the op's own pointer either way; this is hygiene, not
// correctness.
func relinkRoutines(p *fe.Program) {
	routines := make(map[string]int, len(p.Routines))
	for i, r := range p.Routines {
		routines[r.Name] = i
	}
	var walk func(ops []fe.Op) []fe.Op
	walk = func(ops []fe.Op) []fe.Op {
		for i, op := range ops {
			switch op := op.(type) {
			case fe.CallNode:
				if op.Routine != nil {
					if j, ok := routines[op.Routine.Name]; ok {
						op.Routine = p.Routines[j]
						ops[i] = op
					}
				}
			case fe.If:
				op.Then = walk(op.Then)
				op.Else = walk(op.Else)
				ops[i] = op
			case fe.While:
				op.Body = walk(op.Body)
				ops[i] = op
			case fe.DoSerial:
				op.Body = walk(op.Body)
				ops[i] = op
			}
		}
		return ops
	}
	p.Ops = walk(p.Ops)
}

// loadDisk probes the disk tier for key. A usable entry returns the
// restored program; a damaged one is removed (and counted) so it is
// recompiled this time and missed cleanly the next. Never returns a
// corrupt program.
func (s *Service) loadDisk(key Key) *fe.Program {
	if s.CacheDir == "" {
		return nil
	}
	path := diskPath(s.CacheDir, key)
	data, err := os.ReadFile(path)
	if err != nil {
		s.mu.Lock()
		s.disk.Misses++
		if !errors.Is(err, os.ErrNotExist) {
			s.disk.Errors++
		}
		s.mu.Unlock()
		return nil
	}
	prog, err := decodeArtifact(data, key)
	if err != nil {
		os.Remove(path)
		s.mu.Lock()
		s.disk.Misses++
		s.disk.Corrupt++
		s.mu.Unlock()
		return nil
	}
	s.mu.Lock()
	s.disk.Hits++
	s.mu.Unlock()
	return prog
}

// storeDisk persists a finished compilation, best effort: a full disk
// or unwritable dir costs the durability of this one entry, never the
// request. The payload passes through the IO fault injector (when
// armed) so crash tests can manufacture torn and short entry files.
func (s *Service) storeDisk(key Key, prog *fe.Program) {
	if s.CacheDir == "" {
		return
	}
	data, err := encodeArtifact(key, prog)
	if err == nil {
		mangled, _ := s.IOFaults.Mangle(data)
		err = rt.WriteFileAtomic(diskPath(s.CacheDir, key), mangled)
	}
	s.mu.Lock()
	if err != nil {
		s.disk.Errors++
	} else {
		s.disk.Writes++
	}
	s.mu.Unlock()
}

// DiskStats returns a snapshot of the disk-tier counters.
func (s *Service) DiskStats() DiskCacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.disk
}

// PruneDiskCache bounds the disk tier at maxBytes by removing the
// oldest entries (by modification time) until the total fits. Returns
// the number of entries removed. Called by the server at startup; a
// second process pruning concurrently is harmless — removal of an
// already-removed file is not an error.
func (s *Service) PruneDiskCache(maxBytes int64) int {
	if s.CacheDir == "" || maxBytes <= 0 {
		return 0
	}
	ents, err := os.ReadDir(s.CacheDir)
	if err != nil {
		return 0
	}
	type fileInfo struct {
		path string
		size int64
		mod  int64
	}
	var files []fileInfo
	var total int64
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".art") {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		files = append(files, fileInfo{
			path: filepath.Join(s.CacheDir, ent.Name()),
			size: info.Size(),
			mod:  info.ModTime().UnixNano(),
		})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod < files[j].mod })
	removed := 0
	for _, f := range files {
		if total <= maxBytes {
			break
		}
		if os.Remove(f.path) == nil || !fileExists(f.path) {
			total -= f.size
			removed++
		}
	}
	return removed
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
