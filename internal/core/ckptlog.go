package core

import (
	"bytes"
	"io"
	"maps"
	"os"
	"slices"

	"repro/internal/epochstore"
	"repro/internal/hfta"
)

// The checkpoint log. With Options.CheckpointPath set, the file there is a
// base image — written exactly as WriteCheckpointFile writes one, temp
// file and rename, the bytes of Checkpoint — followed by one delta frame
// per later epoch boundary, each appended with one write on the
// descriptor that wrote the image. The LFTA flushes at every epoch end, so
// only one epoch's worth of state changes across a boundary, while the
// image carries histories that grow with every epoch closed: appending the
// change keeps the bytes written per boundary O(newest pane).
//
// A frame is the epochstore's framing (payload length, CRC32C, payload;
// epochstore.SealFrame). Its payload is the format's version byte, the
// closed-epoch count of the state it extends (u64), then the image
// body from the stream position on, with these differences:
//
//   - the scalars, group counts, shed words, flow lengths, per-shard
//     weights, positions and cumulative ledgers, durability footer and
//     window cursor are carried in full, as in an image;
//   - the degradation, per-shard, window-ledger and window-row histories
//     carry only the entries added since the previous record;
//   - retained HFTA rows come as a u32 count of the epochs closed since the
//     previous record, each its epoch (u32) and the image's row list for
//     it: the rows the HFTA retains of it (none once a result handler has
//     taken them);
//   - the window section omits the geometry and sketch echo, lists only
//     the panes fed since the previous record (the epochs it closed), and
//     ends with the epochs of the panes evicted since (u32 count, u32 each).
//
// Restore parses the image, folds the frames into that local state in
// order, and only then runs its cross-checks. It stops at the end of the
// file, at the first torn or checksum-failing frame, or at a frame that
// does not extend the state folded so far (another version byte,
// closed-epoch count or shard count), so a kill mid-append resumes from
// the previous boundary as a kill before the rename does. Neither the
// image nor the frames are fsynced.

// ckptLogRewrite is how many image-sizes of frames the log takes before a
// boundary writes a new base image instead of appending. The file stays
// within (1+ckptLogRewrite)× its image, and so does the work of a restore,
// while each rewrite, amortized over the boundaries since the last, adds
// 1/ckptLogRewrite of a frame's bytes to each — a cost that does not grow
// with the epochs the image's histories cover.
const ckptLogRewrite = 2

// ckptMark is what the log's last record covered: the closed-epoch count
// and history lengths the next frame extends, and the panes retained then.
type ckptMark struct {
	epochs                 int
	hist, winLeds, winRows int
	panes                  []uint32 // ascending epochs
}

// ckptLog is the engine's side of the checkpoint log.
type ckptLog struct {
	f      *os.File // the log, positioned at its end; nil: the next boundary writes a base image
	image  int64    // base image bytes
	frames int64    // frame bytes appended since
	mark   ckptMark
	frame  bytes.Buffer // the next frame: header room, then its payload
}

// close closes the log's descriptor; the next boundary writes a base image.
func (l *ckptLog) close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// drop abandons the log: the file is being replaced or was written
// through, so what a close would report no longer describes the log a
// restore reads.
func (l *ckptLog) drop() { _ = l.close() }

// logCheckpoint records the boundary just closed at Options.CheckpointPath:
// a delta frame appended to the log, or a new base image at the first
// boundary after New or Restore, after a failed append, or when the
// frames would reach ckptLogRewrite× the image.
func (e *Engine) logCheckpoint() error {
	l := &e.ckptLog
	if l.f != nil {
		frame := e.deltaFrame()
		if frame != nil && l.frames+int64(len(frame)) <= ckptLogRewrite*l.image {
			if _, err := l.f.Write(frame); err != nil {
				// A torn tail restores to the previous boundary; the next
				// boundary replaces the file.
				l.drop()
				return err
			}
			l.frames += int64(len(frame))
			e.markCkpt()
			return nil
		}
	}
	l.drop()
	f, err := e.writeImage(e.opts.CheckpointPath)
	if err != nil {
		return err
	}
	size, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		f.Close()
		return err
	}
	l.f, l.image, l.frames = f, size, 0
	e.markCkpt()
	return nil
}

// markCkpt records that the log now covers the engine's state.
func (e *Engine) markCkpt() {
	m := &e.ckptLog.mark
	m.epochs = e.stats.Epochs
	m.hist = len(e.hist.epochs)
	m.winLeds = len(e.windowLeds)
	m.winRows = len(e.windowRows)
	m.panes = m.panes[:0]
	if e.winComposer != nil {
		m.panes = e.winComposer.PaneEpochs(m.panes)
	}
}

// deltaFrame encodes the change since the log's mark as a frame, or
// returns nil when it is too large for one.
func (e *Engine) deltaFrame() []byte {
	l := &e.ckptLog
	var hdr [epochstore.FrameHeaderSize]byte
	l.frame.Reset()
	l.frame.Write(hdr[:])
	c := &e.ckpt
	c.reset(&l.frame)
	c.u8(ckptVersion)
	c.u64(uint64(l.mark.epochs))
	e.writeBody(c, &l.mark)
	_ = c.bw.Flush() // into a bytes.Buffer: cannot fail
	frame := l.frame.Bytes()
	if len(frame)-len(hdr) > epochstore.MaxFramePayload {
		return nil
	}
	epochstore.SealFrame(frame)
	return frame
}

// foldFrame applies one delta frame's payload to st and reports whether it
// did. A frame that does not decode, or does not extend st, is not applied.
func (e *Engine) foldFrame(st *ckptState, payload []byte) bool {
	r := bytes.NewReader(payload)
	d := &ckptDecoder{e: e, r: r}
	version, extends := d.u8(), d.u64()
	if d.err != nil || version != ckptVersion || extends != st.epochs {
		return false
	}
	f := &ckptState{}
	d.body(f, true)
	if d.err != nil || r.Len() != 0 || f.nShards != st.nShards {
		return false
	}
	// The frame's scalars, counts and ledgers replace st's; its histories,
	// rows and panes extend them.
	prev := *st
	*st = *f
	st.hist = append(prev.hist, f.hist...)
	st.rows = prev.rows
	maps.Copy(st.rows, f.rows)
	st.shardHist = append(prev.shardHist, f.shardHist...)
	st.panes = append(slices.DeleteFunc(prev.panes, func(p hfta.PaneSnapshot) bool {
		return slices.Contains(f.evicted, p.Epoch) ||
			slices.ContainsFunc(f.panes, func(q hfta.PaneSnapshot) bool { return q.Epoch == p.Epoch })
	}), f.panes...)
	st.winLeds = append(prev.winLeds, f.winLeds...)
	st.winRows = append(prev.winRows, f.winRows...)
	return true
}
