package server

// The job journal: an append-only WAL under -state-dir recording every
// job's lifecycle so a restarted server can reconstruct its obligations
// exactly. Format f90y-journal/v1:
//
//	<crc32 hex8> <json record>\n
//
// one record per line, the CRC taken over the JSON bytes. The first
// record is a header naming the schema. A line that fails its CRC (or
// does not parse) is a torn-write casualty: expected at the tail after
// a crash, counted and skipped anywhere. Recovery (durable.go) replays
// the surviving records:
//
//	admitted  job accepted; carries the full request so it can be rebuilt
//	ckpt      the job has a spill file; resume from it on restart
//	finished  terminal outcome with the full result payload, so async
//	          pollers get identical bytes across a restart
//
// Every record written is one recovery reads, because each costs an
// fsync on a request's path. Earlier builds also wrote "started" when a
// worker picked a job up; replay never read it and skips it still.
//
// On startup the journal is compacted: finished records inside the
// retention window and admitted(+ckpt) records for jobs being recovered
// are rewritten atomically; everything else has no live obligation.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"strings"
	"sync"

	"f90y/internal/faults"
	"f90y/internal/rt"
)

// JournalSchema identifies the WAL format.
const JournalSchema = "f90y-journal/v1"

// jrec is one journal record. T selects which fields are meaningful.
type jrec struct {
	T      string `json:"t"`                // journal | admitted | ckpt | finished
	Schema string `json:"schema,omitempty"` // journal header
	Job    string `json:"job,omitempty"`

	// admitted
	Tenant string      `json:"tenant,omitempty"`
	Kind   string      `json:"kind,omitempty"`
	Req    *runRequest `json:"req,omitempty"`

	// finished
	Status int        `json:"status,omitempty"`
	Code   Code       `json:"code,omitempty"`
	Error  string     `json:"error,omitempty"`
	Cached bool       `json:"cached,omitempty"`
	Result *runResult `json:"result,omitempty"`
}

// encodeRec renders one WAL line.
func encodeRec(rec jrec) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("server: encode journal record: %w", err)
	}
	return []byte(fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(body), body)), nil
}

// decodeLine parses one WAL line, verifying its CRC.
func decodeLine(line []byte) (jrec, error) {
	var rec jrec
	sp := bytes.IndexByte(line, ' ')
	if sp != 8 {
		return rec, fmt.Errorf("no crc prefix")
	}
	want, err := strconv.ParseUint(string(line[:sp]), 16, 32)
	if err != nil {
		return rec, fmt.Errorf("bad crc prefix %q", line[:sp])
	}
	body := line[sp+1:]
	if got := crc32.ChecksumIEEE(body); got != uint32(want) {
		return rec, fmt.Errorf("crc %08x, line says %08x", got, want)
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		return rec, fmt.Errorf("undecodable record: %v", err)
	}
	return rec, nil
}

// journal is the WAL appender: one fd, one lock, fsync per record.
// Writes pass through the IO fault injector (when armed) so crash tests
// can manufacture torn records.
type journal struct {
	mu      sync.Mutex
	f       *os.File
	io      *faults.IOInjector
	records int64
	bytes   int64
}

// openJournal opens (or creates) the WAL for appending.
func openJournal(path string, inj *faults.IOInjector) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: open journal: %w", err)
	}
	return &journal{f: f, io: inj}, nil
}

// append durably adds one record. Errors are returned for accounting
// but the server treats journal append failure as a degraded mode, not
// a request failure — the job still runs; only its durability is lost.
func (j *journal) append(rec jrec) error {
	line, err := encodeRec(rec)
	if err != nil {
		return err
	}
	mangled, _ := j.io.Mangle(line)
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(mangled); err != nil {
		return fmt.Errorf("server: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("server: journal sync: %w", err)
	}
	j.records++
	j.bytes += int64(len(mangled))
	return nil
}

// usage reports records and bytes appended this epoch.
func (j *journal) usage() (records, bytes int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records, j.bytes
}

// close releases the appender fd.
func (j *journal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.f.Close()
}

// readJournal loads a WAL tolerantly: surviving records in order, plus
// the count of damaged (torn/corrupt) lines. A missing file is an empty
// journal. A journal whose header names an unknown schema is refused —
// silently reinterpreting someone else's format would be data loss.
func readJournal(path string) (recs []jrec, torn int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("server: read journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20) // sources up to the quota fit in one record
	sawHeader := false
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		rec, derr := decodeLine(line)
		if derr != nil {
			torn++
			continue
		}
		if rec.T == "journal" {
			if rec.Schema != JournalSchema {
				return nil, torn, fmt.Errorf("server: journal %s has schema %q, want %q", path, rec.Schema, JournalSchema)
			}
			sawHeader = true
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, torn, fmt.Errorf("server: read journal: %w", err)
	}
	if !sawHeader && (len(recs) > 0 || torn > 0) {
		// Records but no header: the header line itself was torn. The
		// records still carry their own CRCs, so use them — but count the
		// casualty.
		torn++
	}
	return recs, torn, nil
}

// writeCompact atomically replaces the WAL with a header plus recs.
func writeCompact(path string, recs []jrec) error {
	var buf bytes.Buffer
	head, err := encodeRec(jrec{T: "journal", Schema: JournalSchema})
	if err != nil {
		return err
	}
	buf.Write(head)
	for _, rec := range recs {
		line, err := encodeRec(rec)
		if err != nil {
			return err
		}
		buf.Write(line)
	}
	return rt.WriteFileAtomic(path, buf.Bytes())
}

// jobSeq extracts the numeric suffix of a j%06d job id; -1 when the id
// is not in that form (foreign journals are tolerated, not resumed).
func jobSeq(id string) int64 {
	if !strings.HasPrefix(id, "j") {
		return -1
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil || n < 0 {
		return -1
	}
	return n
}
