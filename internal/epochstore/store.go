// Package epochstore is an append-only, segmented on-disk store for
// finalized HFTA epochs. The paper's two-level split finalizes whole
// epochs at a clean boundary — the same property the engine's
// checkpointing exploits — and this store makes those finalized answers
// durable: each (epoch, query relation) result set is one CRC32C-framed
// record appended to a segment file, segments rotate at a size threshold,
// and a manifest names the live segments and is only ever replaced
// atomically (write-temp-then-rename).
//
// The recovery contract: opening a store after any crash — torn append,
// failed fsync, failed rotation, power cut mid-write — always yields a
// clean, duplicate-free prefix of the records that were appended. The
// scan verifies every frame's CRC; the first bad frame marks the torn
// tail, which is truncated away, and any later segments (possible only
// after manifest corruption) are dropped. All I/O goes through the FS
// interface, so the crash-point suite drives recovery against simulated
// power cuts (FaultFS), not just happy paths.
package epochstore

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/attr"
)

const (
	segPrefix  = "seg-"
	segSuffix  = ".mseg"
	segMagic   = "MSEG"
	segVersion = 1
	// Segment header: magic + version byte + 3 reserved bytes.
	segHeaderSize = 8

	manifestName = "MANIFEST"
	manMagic     = "MMAN"
	manVersion   = 1

	// FrameHeaderSize is a frame's header: payload length + CRC32C of the
	// payload.
	FrameHeaderSize = 8

	// Sanity caps on untrusted length fields: corrupt frames must fail
	// cleanly, never demand gigabytes.
	MaxFramePayload = 1 << 26
	maxRows         = 1 << 24
	maxSegments     = 1 << 20

	// DefaultSegmentBytes is the rotation threshold when Options leaves it
	// zero.
	DefaultSegmentBytes = 4 << 20

	// maxSegmentBytes bounds a segment whatever the rotation threshold, so
	// an index entry holds a frame's offset in 32 bits.
	maxSegmentBytes = math.MaxUint32
)

// ErrCorrupt reports a malformed record, segment, or manifest.
var ErrCorrupt = errors.New("epochstore: corrupt store")

// ErrClosed reports use of a closed store.
var ErrClosed = errors.New("epochstore: store is closed")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Row is one finalized group of a persisted epoch record.
type Row struct {
	Key  []uint32
	Aggs []int64
}

// Record is the unit of persistence: one query relation's finalized rows
// for one epoch, stamped with the epoch's degradation ledger so a
// historical reader knows exactly what the rows cover.
type Record struct {
	Epoch uint32
	Rel   attr.Set
	Rows  []Row

	// The epoch's Offered == Processed + Dropped + Late ledger (shared by
	// every relation of the epoch).
	Offered, Processed, Dropped, Late uint64
}

// Options configure Open.
type Options struct {
	// FS routes all I/O; nil = the real filesystem (OSFS).
	FS FS
	// SegmentBytes is the rotation threshold (default DefaultSegmentBytes).
	// A segment also rotates before an append would take it past 4 GiB.
	SegmentBytes int64
}

// Recovery reports what Open had to repair.
type Recovery struct {
	TruncatedBytes  int64 // torn-tail bytes cut from the log
	DroppedSegments int   // segments discarded after the first corruption
	DuplicateFrames int   // re-appended frames skipped during the scan
	ManifestRebuilt bool  // manifest was missing/corrupt; rebuilt from a directory scan
}

// Dirty reports whether recovery changed anything.
func (r Recovery) Dirty() bool {
	return r.TruncatedBytes > 0 || r.DroppedSegments > 0 || r.DuplicateFrames > 0 || r.ManifestRebuilt
}

// indexEntry locates one run of persisted records: the frames one
// AppendEpoch wrote for one epoch, back to back from off in segment seg,
// whose relations — in frame order — are the interned list rels names.
// The engine persists an epoch's relations together, so the index holds
// one 16-byte entry per epoch, not one per (epoch, relation). It is the
// store's only memory that grows with the epochs persisted. The entries
// are sorted by epoch, the runs of one epoch in append order. Appends
// arrive in epoch order, so an insert is an append at the end except when
// an epoch older than the newest is persisted (a replay after a restore),
// which binary-searches its slot. A frame's length is not kept: a read
// reaches the k-th relation of a run by skipping k frame headers.
type indexEntry struct {
	epoch uint32
	seg   uint32
	off   uint32 // the run's first frame start (header included); below maxSegmentBytes
	rels  uint32 // index into Store.relLists
}

// Store is the durable epoch store. All methods are safe for concurrent
// use; appends serialize on one mutex (the persister is the only writer,
// off the engine's hot path).
type Store struct {
	dir      string
	fs       FS
	segBytes int64

	mu       sync.Mutex
	closed   bool
	segs     []uint32 // live segment ids, ascending; the last is active
	active   File
	activeID uint32
	goodSize int64 // committed (synced, indexed) bytes of the active segment
	damaged  bool  // bytes past goodSize may be torn; repair before appending
	index    []indexEntry
	records  int          // persisted (epoch, relation) records: the runs' relations
	relLists [][]attr.Set // interned run relation lists: the few an engine's epochs share
	runRels  []attr.Set
	recovery Recovery
	scratch  []byte
}

// Open opens (or creates) the store in dir, running crash recovery: the
// segments named by the manifest are scanned frame by frame, the torn
// tail (if any) is truncated, and a fresh manifest is written if the old
// one was missing, stale, or corrupt. The result is always a clean,
// duplicate-free prefix of the appended records.
func Open(dir string, opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	segBytes := opts.SegmentBytes
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("epochstore: %w", err)
	}
	s := &Store{
		dir:      dir,
		fs:       fsys,
		segBytes: segBytes,
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) segName(id uint32) string {
	return fmt.Sprintf("%s/%s%08d%s", s.dir, segPrefix, id, segSuffix)
}

func (s *Store) manifestPath() string { return s.dir + "/" + manifestName }

// listSegments falls back to a directory scan when the manifest cannot be
// trusted; segment names sort numerically because the id is zero-padded.
func (s *Store) listSegments() ([]uint32, error) {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var ids []uint32
	for _, name := range names {
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var id uint32
		if _, err := fmt.Sscanf(name, segPrefix+"%08d"+segSuffix, &id); err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// recover builds the in-memory state from disk; see Open.
func (s *Store) recover() error {
	segs, manErr := s.readManifest()
	if manErr != nil {
		ids, err := s.listSegments()
		if err != nil {
			return fmt.Errorf("epochstore: %w", err)
		}
		segs = ids
		if len(ids) > 0 || !errors.Is(manErr, os.ErrNotExist) {
			s.recovery.ManifestRebuilt = true
		}
	}
	if len(segs) == 0 {
		if err := s.createSegment(1); err != nil {
			return err
		}
		s.segs = []uint32{1}
		s.activeID = 1
		s.goodSize = segHeaderSize
		f, err := s.fs.OpenFile(s.segName(1), os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("epochstore: %w", err)
		}
		s.active = f
		return s.writeManifest()
	}

	// Scan every live segment in order. The first bad frame ends the log:
	// the segment is truncated there and every later segment is dropped.
	var (
		live     []uint32
		lastGood int64
		torn     bool
	)
	for i, id := range segs {
		if torn {
			s.recovery.DroppedSegments++
			_ = s.fs.Remove(s.segName(id))
			continue
		}
		size, err := s.fs.Size(s.segName(id))
		if errors.Is(err, os.ErrNotExist) {
			// A rotation that crashed between manifest write and file
			// creation cannot happen (the file is created first), but a
			// manifest from a corrupted disk may name ghosts: end the log.
			torn = true
			s.recovery.DroppedSegments++
			continue
		}
		if err != nil {
			return fmt.Errorf("epochstore: %w", err)
		}
		clean, err := s.scanSegment(id, size)
		if err != nil {
			return err
		}
		if clean < 0 {
			// Header unreadable. For the last segment this is a crashed
			// rotation: recreate it empty. Anywhere else, end the log.
			if i == len(segs)-1 {
				if err := s.createSegment(id); err != nil {
					return err
				}
				s.recovery.TruncatedBytes += size
				live = append(live, id)
				lastGood = segHeaderSize
				break
			}
			torn = true
			s.recovery.DroppedSegments++
			_ = s.fs.Remove(s.segName(id))
			continue
		}
		if clean < size {
			s.recovery.TruncatedBytes += size - clean
			if err := s.truncateSegment(id, clean); err != nil {
				return err
			}
			torn = true
		}
		live = append(live, id)
		lastGood = clean
	}
	if len(live) == 0 {
		if err := s.createSegment(1); err != nil {
			return err
		}
		live = []uint32{1}
		lastGood = segHeaderSize
	}
	s.segs = live
	s.activeID = live[len(live)-1]
	s.goodSize = lastGood
	f, err := s.fs.OpenFile(s.segName(s.activeID), os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("epochstore: %w", err)
	}
	s.active = f
	if s.recovery.Dirty() {
		return s.writeManifest()
	}
	return nil
}

// scanSegment validates one segment's frames, filling the index. It
// returns the clean prefix length, or -1 if the header itself is bad.
func (s *Store) scanSegment(id uint32, size int64) (int64, error) {
	if size < segHeaderSize {
		return -1, nil
	}
	if size > maxSegmentBytes {
		return 0, fmt.Errorf("%w: segment %d holds %d bytes, past the %d a segment may", ErrCorrupt, id, size, int64(maxSegmentBytes))
	}
	f, err := s.fs.OpenFile(s.segName(id), os.O_RDONLY, 0)
	if err != nil {
		return 0, fmt.Errorf("epochstore: %w", err)
	}
	defer f.Close()
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
		return 0, fmt.Errorf("epochstore: %w", err)
	}
	if string(data[:4]) != segMagic || data[4] != segVersion {
		return -1, nil
	}
	clean, frames := scanFrames(data[segHeaderSize:])
	// Consecutive frames of one epoch are indexed as one run, as the
	// AppendEpoch that wrote them did; a duplicate frame ends the run.
	var run []attr.Set
	var head indexEntry
	flush := func() {
		if len(run) > 0 {
			s.insertRun(head, run)
			run = run[:0]
		}
	}
	for _, fr := range frames {
		rec, err := decodeRecord(data[segHeaderSize+fr.off+FrameHeaderSize : segHeaderSize+fr.off+fr.len])
		if err != nil {
			// CRC passed but the payload is not a record: treat as torn
			// from this frame on.
			clean = fr.off
			break
		}
		if len(run) > 0 && head.epoch != rec.Epoch {
			flush()
		}
		if _, _, dup := s.find(rec.Epoch, rec.Rel); dup || slices.Contains(run, rec.Rel) {
			s.recovery.DuplicateFrames++
			flush()
			continue
		}
		if len(run) == 0 {
			head = indexEntry{epoch: rec.Epoch, seg: id, off: uint32(segHeaderSize + fr.off)}
		}
		run = append(run, rec.Rel)
	}
	flush()
	return segHeaderSize + clean, nil
}

// find locates (epoch, rel): the index of its run and its position in the
// run's relations, and whether it is persisted.
func (s *Store) find(epoch uint32, rel attr.Set) (run, k int, ok bool) {
	for i := s.firstRun(epoch); i < len(s.index) && s.index[i].epoch == epoch; i++ {
		if k := slices.Index(s.relLists[s.index[i].rels], rel); k >= 0 {
			return i, k, true
		}
	}
	return 0, 0, false
}

// firstRun returns the index of the first run of epoch, or of the first
// run of a later epoch when there is none.
func (s *Store) firstRun(epoch uint32) int {
	i, _ := slices.BinarySearchFunc(s.index, epoch, func(ent indexEntry, epoch uint32) int { return cmp.Compare(ent.epoch, epoch) })
	return i
}

// insertRun indexes a run of frames (ent's rels is set here) behind every
// run of its epoch and the ones before.
func (s *Store) insertRun(ent indexEntry, rels []attr.Set) {
	id := slices.IndexFunc(s.relLists, func(l []attr.Set) bool { return slices.Equal(l, rels) })
	if id < 0 {
		id = len(s.relLists)
		s.relLists = append(s.relLists, slices.Clone(rels))
	}
	ent.rels = uint32(id)
	s.records += len(rels)
	if n := len(s.index); n == 0 || s.index[n-1].epoch <= ent.epoch {
		s.index = append(s.index, ent)
		return
	}
	s.index = slices.Insert(s.index, s.firstRun(ent.epoch+1), ent)
}

// SealFrame makes frame — FrameHeaderSize reserved bytes followed by a
// payload of 1 to MaxFramePayload bytes — one frame of the store's log
// format by filling the header with the payload's length and CRC32C.
// Other append-only logs (the engine's checkpoint log) share the store's
// framing and its torn-tail rule (ReadFrame).
func SealFrame(frame []byte) {
	payload := frame[FrameHeaderSize:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
}

// ReadFrame reads the next frame from r into buf and returns its payload,
// which aliases buf. It returns io.EOF when r ends exactly at a frame
// boundary, and an error wrapping ErrCorrupt for a torn frame (r ends inside
// it), an implausible length, or a checksum mismatch: whatever follows such
// a frame is not part of the log.
func ReadFrame(r io.Reader, buf *bytes.Buffer) ([]byte, error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: torn frame header: %v", ErrCorrupt, err)
	}
	plen := int64(binary.LittleEndian.Uint32(hdr[:]))
	if plen <= 0 || plen > MaxFramePayload {
		return nil, fmt.Errorf("%w: frame length %d", ErrCorrupt, plen)
	}
	// Copy rather than pre-size: a corrupt header must not allocate the
	// length it claims before the bytes exist.
	buf.Reset()
	if n, err := io.CopyN(buf, r, plen); n != plen {
		return nil, fmt.Errorf("%w: torn frame: %d of %d payload bytes (%v)", ErrCorrupt, n, plen, err)
	}
	payload := buf.Bytes()
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

type frameSpan struct{ off, len int64 }

// scanFrames walks CRC32C frames in data, returning the clean prefix
// length and the spans of the valid frames. It never fails: a bad frame
// just ends the clean prefix.
func scanFrames(data []byte) (clean int64, frames []frameSpan) {
	off := int64(0)
	for {
		if off+FrameHeaderSize > int64(len(data)) {
			return off, frames
		}
		plen := int64(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if plen <= 0 || plen > MaxFramePayload || off+FrameHeaderSize+plen > int64(len(data)) {
			return off, frames
		}
		payload := data[off+FrameHeaderSize : off+FrameHeaderSize+plen]
		if crc32.Checksum(payload, crcTable) != crc {
			return off, frames
		}
		frames = append(frames, frameSpan{off: off, len: FrameHeaderSize + plen})
		off += FrameHeaderSize + plen
	}
}

// createSegment creates (truncating any leftover) segment id with a
// synced header.
func (s *Store) createSegment(id uint32) error {
	f, err := s.fs.OpenFile(s.segName(id), os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("epochstore: %w", err)
	}
	hdr := make([]byte, segHeaderSize)
	copy(hdr, segMagic)
	hdr[4] = segVersion
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("epochstore: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("epochstore: %w", err)
	}
	return f.Close()
}

func (s *Store) truncateSegment(id uint32, size int64) error {
	f, err := s.fs.OpenFile(s.segName(id), os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("epochstore: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("epochstore: %w", err)
	}
	return f.Sync()
}

// Manifest format: magic, CRC32C of the body, body = version byte +
// segment count + segment ids. Replaced atomically via temp + rename.
func encodeManifest(segs []uint32) []byte {
	body := make([]byte, 0, 5+4*len(segs))
	body = append(body, manVersion)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(segs)))
	for _, id := range segs {
		body = binary.LittleEndian.AppendUint32(body, id)
	}
	out := make([]byte, 0, 8+len(body))
	out = append(out, manMagic...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crcTable))
	return append(out, body...)
}

func decodeManifest(data []byte) ([]uint32, error) {
	if len(data) < 13 || string(data[:4]) != manMagic {
		return nil, fmt.Errorf("%w: bad manifest header", ErrCorrupt)
	}
	crc := binary.LittleEndian.Uint32(data[4:])
	body := data[8:]
	if crc32.Checksum(body, crcTable) != crc {
		return nil, fmt.Errorf("%w: manifest checksum mismatch", ErrCorrupt)
	}
	if body[0] != manVersion {
		return nil, fmt.Errorf("%w: manifest version %d", ErrCorrupt, body[0])
	}
	n := binary.LittleEndian.Uint32(body[1:])
	if n > maxSegments || int64(len(body)) != 5+4*int64(n) {
		return nil, fmt.Errorf("%w: manifest names %d segments in %d bytes", ErrCorrupt, n, len(body))
	}
	segs := make([]uint32, n)
	for i := range segs {
		segs[i] = binary.LittleEndian.Uint32(body[5+4*i:])
	}
	for i := 1; i < len(segs); i++ {
		if segs[i] <= segs[i-1] {
			return nil, fmt.Errorf("%w: manifest segment ids not ascending", ErrCorrupt)
		}
	}
	return segs, nil
}

func (s *Store) readManifest() ([]uint32, error) {
	size, err := s.fs.Size(s.manifestPath())
	if err != nil {
		return nil, err
	}
	if size > 8+5+4*maxSegments {
		return nil, fmt.Errorf("%w: implausible manifest size %d", ErrCorrupt, size)
	}
	f, err := s.fs.OpenFile(s.manifestPath(), os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return decodeManifest(data)
}

func (s *Store) writeManifest() error {
	tmp := s.manifestPath() + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("epochstore: %w", err)
	}
	data := encodeManifest(s.segs)
	if _, err := f.Write(data); err != nil {
		f.Close()
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("epochstore: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("epochstore: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("epochstore: %w", err)
	}
	if err := s.fs.Rename(tmp, s.manifestPath()); err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("epochstore: %w", err)
	}
	return nil
}

// Record payload: epoch, rel, the four ledger counters, row count, key
// and aggregate arity, then the rows (keys then aggs, row-major).
func encodeRecord(buf []byte, rec *Record) ([]byte, error) {
	keyLen, aggLen := 0, 0
	if len(rec.Rows) > 0 {
		keyLen, aggLen = len(rec.Rows[0].Key), len(rec.Rows[0].Aggs)
	}
	if keyLen > 255 || aggLen > 255 {
		return nil, fmt.Errorf("epochstore: row arity %d/%d exceeds format limit", keyLen, aggLen)
	}
	if keyLen != rec.Rel.Size() && len(rec.Rows) > 0 {
		return nil, fmt.Errorf("epochstore: key arity %d does not match relation %v", keyLen, rec.Rel)
	}
	buf = binary.LittleEndian.AppendUint32(buf, rec.Epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.Rel))
	buf = binary.LittleEndian.AppendUint64(buf, rec.Offered)
	buf = binary.LittleEndian.AppendUint64(buf, rec.Processed)
	buf = binary.LittleEndian.AppendUint64(buf, rec.Dropped)
	buf = binary.LittleEndian.AppendUint64(buf, rec.Late)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Rows)))
	buf = append(buf, byte(keyLen), byte(aggLen))
	for i := range rec.Rows {
		r := &rec.Rows[i]
		if len(r.Key) != keyLen || len(r.Aggs) != aggLen {
			return nil, fmt.Errorf("epochstore: ragged rows in record for %v epoch %d", rec.Rel, rec.Epoch)
		}
		for _, k := range r.Key {
			buf = binary.LittleEndian.AppendUint32(buf, k)
		}
		for _, a := range r.Aggs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(a))
		}
	}
	return buf, nil
}

const recordHeaderSize = 4 + 4 + 4*8 + 4 + 2

func decodeRecord(payload []byte) (*Record, error) {
	if len(payload) < recordHeaderSize {
		return nil, fmt.Errorf("%w: record payload %d bytes", ErrCorrupt, len(payload))
	}
	rec := &Record{
		Epoch:     binary.LittleEndian.Uint32(payload[0:]),
		Rel:       attr.Set(binary.LittleEndian.Uint32(payload[4:])),
		Offered:   binary.LittleEndian.Uint64(payload[8:]),
		Processed: binary.LittleEndian.Uint64(payload[16:]),
		Dropped:   binary.LittleEndian.Uint64(payload[24:]),
		Late:      binary.LittleEndian.Uint64(payload[32:]),
	}
	nRows := binary.LittleEndian.Uint32(payload[40:])
	keyLen := int(payload[44])
	aggLen := int(payload[45])
	if uint32(rec.Rel)>>attr.MaxAttrs != 0 {
		return nil, fmt.Errorf("%w: relation bits out of range", ErrCorrupt)
	}
	if nRows > maxRows {
		return nil, fmt.Errorf("%w: implausible row count %d", ErrCorrupt, nRows)
	}
	if nRows == 0 && (keyLen != 0 || aggLen != 0) {
		// The encoder writes zero arity for empty records; anything else is
		// not one of our frames.
		return nil, fmt.Errorf("%w: empty record with nonzero arity", ErrCorrupt)
	}
	if nRows > 0 && keyLen != rec.Rel.Size() {
		return nil, fmt.Errorf("%w: key arity %d for relation %v", ErrCorrupt, keyLen, rec.Rel)
	}
	rowBytes := int64(keyLen)*4 + int64(aggLen)*8
	if nRows > 0 && rowBytes == 0 {
		return nil, fmt.Errorf("%w: %d rows of zero width", ErrCorrupt, nRows)
	}
	if int64(len(payload)) != recordHeaderSize+int64(nRows)*rowBytes {
		return nil, fmt.Errorf("%w: record length mismatch", ErrCorrupt)
	}
	rec.Rows = make([]Row, nRows)
	off := recordHeaderSize
	for i := range rec.Rows {
		key := make([]uint32, keyLen)
		for j := range key {
			key[j] = binary.LittleEndian.Uint32(payload[off:])
			off += 4
		}
		aggs := make([]int64, aggLen)
		for j := range aggs {
			aggs[j] = int64(binary.LittleEndian.Uint64(payload[off:]))
			off += 8
		}
		rec.Rows[i] = Row{Key: key, Aggs: aggs}
	}
	return rec, nil
}

// AppendEpoch appends one finalized epoch — one record per query relation
// — and fsyncs once. Records already persisted (same epoch and relation),
// or repeated earlier in recs, are skipped, so a retry after a transient
// error or a crash never duplicates: the store stays an exactly-once log
// under at-least-once delivery, and the first copy is the one kept, as the
// recovery scan keeps it. On error nothing is committed; the next call
// repairs the torn tail (truncate back to the last committed byte) before
// writing, so failed attempts leave no trace either.
func (s *Store) AppendEpoch(recs []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.damaged {
		if err := s.repairTailLocked(); err != nil {
			return err
		}
	}
	type frame struct {
		epoch uint32
		rel   attr.Set
		off   uint32 // within buf until the write lands
	}
	var (
		frames []frame
		buf    = s.scratch[:0]
	)
	for i := range recs {
		rec := &recs[i]
		if _, _, dup := s.find(rec.Epoch, rec.Rel); dup || slices.ContainsFunc(frames, func(f frame) bool {
			return f.epoch == rec.Epoch && f.rel == rec.Rel
		}) {
			continue
		}
		start := len(buf)
		buf = append(buf, make([]byte, FrameHeaderSize)...) // sealed below
		var err error
		buf, err = encodeRecord(buf, rec)
		if err != nil {
			return err
		}
		SealFrame(buf[start:])
		frames = append(frames, frame{epoch: rec.Epoch, rel: rec.Rel, off: uint32(start)})
	}
	s.scratch = buf[:0]
	if len(frames) == 0 {
		return nil
	}
	if s.goodSize >= s.segBytes || s.goodSize+int64(len(buf)) > maxSegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	if s.goodSize+int64(len(buf)) > maxSegmentBytes {
		return fmt.Errorf("epochstore: epoch %d's %d bytes exceed a segment", frames[0].epoch, len(buf))
	}
	if _, err := s.active.Write(buf); err != nil {
		s.damaged = true
		return fmt.Errorf("epochstore: append: %w", err)
	}
	if err := s.active.Sync(); err != nil {
		s.damaged = true
		return fmt.Errorf("epochstore: append sync: %w", err)
	}
	// One run per stretch of frames of one epoch.
	for i := 0; i < len(frames); {
		rels := s.runRels[:0]
		j := i
		for ; j < len(frames) && frames[j].epoch == frames[i].epoch; j++ {
			rels = append(rels, frames[j].rel)
		}
		s.runRels = rels
		s.insertRun(indexEntry{epoch: frames[i].epoch, seg: s.activeID, off: uint32(s.goodSize) + frames[i].off}, rels)
		i = j
	}
	s.goodSize += int64(len(buf))
	return nil
}

// repairTailLocked truncates the active segment back to the last
// committed byte after a failed append left an unknown tail.
func (s *Store) repairTailLocked() error {
	if err := s.active.Truncate(s.goodSize); err != nil {
		return fmt.Errorf("epochstore: tail repair: %w", err)
	}
	s.damaged = false
	return nil
}

// rotateLocked seals the active segment and switches appends to a fresh
// one: create + sync the new file first, then atomically publish it in
// the manifest, then swap handles. A crash between those steps leaves
// either the old manifest (orphan file, recreated on reuse) or the new
// one (empty valid segment) — both recover cleanly.
func (s *Store) rotateLocked() error {
	newID := s.activeID + 1
	if err := s.createSegment(newID); err != nil {
		return err
	}
	oldSegs := s.segs
	s.segs = append(append([]uint32(nil), oldSegs...), newID)
	if err := s.writeManifest(); err != nil {
		s.segs = oldSegs
		_ = s.fs.Remove(s.segName(newID))
		return err
	}
	f, err := s.fs.OpenFile(s.segName(newID), os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("epochstore: %w", err)
	}
	_ = s.active.Close()
	s.active = f
	s.activeID = newID
	s.goodSize = segHeaderSize
	return nil
}

// Has reports whether (epoch, rel) is persisted.
func (s *Store) Has(epoch uint32, rel attr.Set) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _, ok := s.find(epoch, rel)
	return ok
}

// Epochs returns the persisted epoch numbers, ascending. An epoch is
// listed if any relation's record for it is persisted.
func (s *Store) Epochs() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []uint32
	for _, ent := range s.index {
		if n := len(out); n == 0 || out[n-1] != ent.epoch {
			out = append(out, ent.epoch)
		}
	}
	return out
}

// Relations returns the relations persisted for one epoch, in
// attr.SortSets order.
func (s *Store) Relations(epoch uint32) []attr.Set {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []attr.Set
	for i := s.firstRun(epoch); i < len(s.index) && s.index[i].epoch == epoch; i++ {
		out = append(out, s.relLists[s.index[i].rels]...)
	}
	attr.SortSets(out)
	return out
}

// Len returns the number of persisted (epoch, relation) records — not of
// index entries, which hold a run of an epoch's records each.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// Read returns one persisted record, re-verifying its CRC on the way in.
func (s *Store) Read(epoch uint32, rel attr.Set) (*Record, error) {
	s.mu.Lock()
	i, k, ok := s.find(epoch, rel)
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("epochstore: epoch %d of %v is not persisted", epoch, rel)
	}
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	ent := s.index[i]
	s.mu.Unlock()
	return s.readRun(ent, k, rel)
}

// readRun reads the k-th record of a run, rel's, skipping the k frames
// ahead of it by their headers.
func (s *Store) readRun(ent indexEntry, k int, rel attr.Set) (*Record, error) {
	f, err := s.fs.OpenFile(s.segName(ent.seg), os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("epochstore: %w", err)
	}
	defer f.Close()
	off := int64(ent.off)
	for ; k > 0; k-- {
		var hdr [FrameHeaderSize]byte
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			return nil, fmt.Errorf("epochstore: epoch %d of %v: %w: frame header: %v", ent.epoch, rel, ErrCorrupt, err)
		}
		off += FrameHeaderSize + int64(binary.LittleEndian.Uint32(hdr[:]))
	}
	var buf bytes.Buffer
	payload, err := ReadFrame(io.NewSectionReader(f, off, FrameHeaderSize+MaxFramePayload), &buf)
	if err != nil {
		return nil, fmt.Errorf("epochstore: epoch %d of %v: %w", ent.epoch, rel, err)
	}
	rec, err := decodeRecord(payload)
	if err == nil && (rec.Epoch != ent.epoch || rec.Rel != rel) {
		err = fmt.Errorf("%w: epoch %d of %v reads as epoch %d of %v", ErrCorrupt, ent.epoch, rel, rec.Epoch, rec.Rel)
	}
	return rec, err
}

// Scan calls fn for every persisted record in (epoch, relation) order,
// relations by their bits.
func (s *Store) Scan(fn func(*Record) error) error {
	for _, ep := range s.Epochs() {
		rels := s.Relations(ep)
		slices.Sort(rels)
		for _, rel := range rels {
			rec, err := s.Read(ep, rel)
			if err != nil {
				return err
			}
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// Recovery reports what Open repaired.
func (s *Store) Recovery() Recovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// Close closes the store; further appends and reads fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.active != nil {
		return s.active.Close()
	}
	return nil
}
