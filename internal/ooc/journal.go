package ooc

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"time"
)

// The progress journal: an append-only write-ahead log on any Backend.
// Before a transformed segment overwrites its backend region, the
// segment's original bytes (the panel as read, before the in-place
// transform) are appended as an undo image and synced; after the data
// write completes, a commit record with the transformed segment's
// checksum is appended. Pass boundaries get their own records, written
// after the data backend is synced. A crash therefore leaves the journal
// in one of three states per segment — untouched (re-execute),
// intent-only (roll back the undo image, then re-execute), or committed
// (skip if the data still matches the commit checksum, otherwise roll
// back and re-execute: commits are not preceded by a data sync) — and
// every state resumes to the identical final matrix. A unit's latest
// record decides its state: an intent after a commit (a resume rolled
// the unit back and was killed re-executing it) makes it intent-only.
//
// Version 2 sums record payloads and commits with CRC32C, zero-extended
// into the frame's 64-bit PayloadSum; frame and journal headers keep
// their CRC64. Version 1 journals recorded the four-pass schedule with
// a separate rotation and row permute, which no longer exists, so
// resuming one fails with ErrJournalMismatch.
//
// Torn trailing records are the expected shape of a crash: scanning
// stops at the first record whose header or payload checksum fails, or
// whose run identifier belongs to an older journal generation, and
// everything after is treated as never written.

const (
	journalMagic   = "XOOCJv1\n" // the file type; the format version is a header field
	journalVersion = 2
	headerSize     = 64
	recHeaderSize  = FrameHeaderSize
)

// Record kinds. Stable on-disk values.
const (
	recIntent   = 1 // payload: undo image of the segment's panel bytes
	recCommit   = 2 // payload: 8-byte CRC32C of the transformed panel
	recPassDone = 3 // payload: empty
)

// journal is an open journal with an append cursor. The runner appends
// from a single goroutine.
type journal struct {
	b     Backend
	ctr   *counters
	runID uint64
	end   int64
}

// journalGeom is the schedule fingerprint persisted in the header. A
// resume must match its shape, direction and pass count exactly; the
// panel widths it records replace the derived ones, so the unit
// boundaries stay where the journal put them.
type journalGeom struct {
	rows, cols, elem int
	c2r              bool
	vw, hh           int
	passes           int
}

func (s *schedule) geom(rows, cols int) journalGeom {
	return journalGeom{rows: rows, cols: cols, elem: s.elem, c2r: s.c2r, vw: s.vw, hh: s.hh, passes: len(s.passes)}
}

// resumeState is what a journal scan recovers: how many passes are
// fully done, which units of the in-flight pass committed, the pending
// intents to roll back, and the per-unit checksums of the final pass
// (for Verify).
type resumeState struct {
	donePasses int
	committed  map[int]commitRec // units of pass donePasses with commit records
	intents    map[int]intent    // units of pass donePasses with intent but no commit
	finalSums  map[int]uint64    // unit -> CRC32C, final pass only
}

// intent locates a unit's undo image in the journal.
type intent struct {
	payloadOff int64
	payloadLen int64
}

// commitRec is a committed unit of the in-flight pass: its commit
// checksum, and its undo image in case the data behind the commit did
// not survive.
type commitRec struct {
	sum  uint64
	undo intent
}

// newJournal starts a fresh journal generation on b: writes a new
// header (invalidating any previous generation's records via the run
// identifier) and returns the append-ready journal.
func newJournal(b Backend, g journalGeom, ctr *counters) (*journal, error) {
	j := &journal{b: b, ctr: ctr, runID: uint64(time.Now().UnixNano()), end: headerSize}
	var h [headerSize]byte
	copy(h[0:8], journalMagic)
	binary.LittleEndian.PutUint32(h[8:12], journalVersion)
	binary.LittleEndian.PutUint32(h[12:16], uint32(g.elem))
	binary.LittleEndian.PutUint64(h[16:24], uint64(g.rows))
	binary.LittleEndian.PutUint64(h[24:32], uint64(g.cols))
	var flags uint64
	if g.c2r {
		flags = 1
	}
	flags |= uint64(g.passes) << 8
	binary.LittleEndian.PutUint64(h[32:40], flags)
	binary.LittleEndian.PutUint64(h[40:48], uint64(g.vw)<<32|uint64(g.hh))
	binary.LittleEndian.PutUint64(h[48:56], j.runID)
	binary.LittleEndian.PutUint64(h[56:64], crc64.Checksum(h[0:56], crcTab))
	if _, err := b.WriteAt(h[:], 0); err != nil {
		return nil, fmt.Errorf("ooc: writing journal header: %w", err)
	}
	ctr.journalBytes.Add(headerSize)
	// Drop any stale generation's tail when the backend supports it;
	// the run identifier protects correctness either way.
	if t, ok := b.(interface{ Truncate(int64) error }); ok {
		_ = t.Truncate(headerSize)
	}
	if err := syncBackend(b, "journal"); err != nil {
		return nil, err
	}
	return j, nil
}

// openJournal validates an existing journal against the run's geometry,
// adopts the panel widths it recorded into s, and scans it into a
// resumeState.
func openJournal(b Backend, s *schedule, cfg Config, ctr *counters) (*journal, *resumeState, error) {
	g := s.geom(cfg.Rows, cfg.Cols)
	var h [headerSize]byte
	if _, err := io.ReadFull(io.NewSectionReader(b, 0, headerSize), h[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: unreadable header: %v", ErrJournalCorrupt, err)
	}
	if string(h[0:8]) != journalMagic {
		return nil, nil, fmt.Errorf("%w: bad magic", ErrJournalCorrupt)
	}
	if got := binary.LittleEndian.Uint64(h[56:64]); got != crc64.Checksum(h[0:56], crcTab) {
		return nil, nil, fmt.Errorf("%w: header checksum mismatch", ErrJournalCorrupt)
	}
	if v := binary.LittleEndian.Uint32(h[8:12]); v != journalVersion {
		return nil, nil, mismatchErr("version", int64(v), journalVersion)
	}
	check := func(field string, got, want int64) error {
		if got != want {
			return mismatchErr(field, got, want)
		}
		return nil
	}
	flags := binary.LittleEndian.Uint64(h[32:40])
	vwhh := binary.LittleEndian.Uint64(h[40:48])
	jc2r := flags&1 != 0
	for _, c := range []struct {
		field     string
		got, want int64
	}{
		{"elem_size", int64(binary.LittleEndian.Uint32(h[12:16])), int64(g.elem)},
		{"rows", int64(binary.LittleEndian.Uint64(h[16:24])), int64(g.rows)},
		{"cols", int64(binary.LittleEndian.Uint64(h[24:32])), int64(g.cols)},
		{"passes", int64(flags >> 8), int64(g.passes)},
	} {
		if err := check(c.field, c.got, c.want); err != nil {
			return nil, nil, err
		}
	}
	if jc2r != g.c2r {
		return nil, nil, fmt.Errorf("%w: direction differs", ErrJournalMismatch)
	}
	if err := s.adoptPanels(int(vwhh>>32), int(vwhh&0xffffffff), cfg.Budget); err != nil {
		return nil, nil, err
	}
	finalPass := len(s.passes) - 1

	j := &journal{b: b, ctr: ctr, runID: binary.LittleEndian.Uint64(h[48:56]), end: headerSize}
	st := &resumeState{committed: map[int]commitRec{}, intents: map[int]intent{}, finalSums: map[int]uint64{}}
	var rh [recHeaderSize]byte
	for {
		if _, err := io.ReadFull(io.NewSectionReader(b, j.end, recHeaderSize), rh[:]); err != nil {
			break // torn or absent record: logical end of journal
		}
		fr, ok := ParseFrame(rh[:])
		if !ok {
			break // torn header
		}
		if fr.Gen != j.runID {
			break // stale generation
		}
		kind := fr.Kind
		pass := int(fr.Tag)
		unit := int(fr.Unit)
		plen := int64(fr.PayloadLen)
		payloadOff := j.end + recHeaderSize
		var commitSum uint64
		if kind == recCommit {
			var sb [8]byte
			if plen != 8 {
				break // not a commit this version writes
			}
			if _, err := io.ReadFull(io.NewSectionReader(b, payloadOff, 8), sb[:]); err != nil || CRC32C(sb[:]) != fr.PayloadSum {
				break // torn payload
			}
			commitSum = binary.LittleEndian.Uint64(sb[:])
		} else if plen > 0 {
			sum, err := CRC32CRange(b, payloadOff, plen)
			if err != nil || sum != fr.PayloadSum {
				break // torn payload
			}
		}
		switch kind {
		case recPassDone:
			if pass == st.donePasses {
				st.donePasses++
				st.committed = map[int]commitRec{}
				st.intents = map[int]intent{}
			}
		case recIntent:
			if pass == st.donePasses {
				// A later intent supersedes an earlier commit: a
				// resume rolled the unit back and was killed while
				// re-executing it.
				st.intents[unit] = intent{payloadOff: payloadOff, payloadLen: plen}
				delete(st.committed, unit)
				if pass == finalPass {
					delete(st.finalSums, unit)
				}
			}
		case recCommit:
			if pass == st.donePasses {
				st.committed[unit] = commitRec{sum: commitSum, undo: st.intents[unit]}
				delete(st.intents, unit)
			}
			if pass == finalPass {
				st.finalSums[unit] = commitSum
			}
		}
		j.end = payloadOff + plen
	}
	return j, st, nil
}

// append writes one record (header plus payload) at the cursor.
func (j *journal) append(kind byte, pass, unit int, payload []byte) error {
	var rh [recHeaderSize]byte
	PutFrame(rh[:], Frame{
		Kind:       kind,
		Tag:        uint32(pass),
		Unit:       uint64(unit),
		PayloadLen: uint64(len(payload)),
		PayloadSum: CRC32C(payload),
		Gen:        j.runID,
	})
	if _, err := j.b.WriteAt(rh[:], j.end); err != nil {
		return fmt.Errorf("ooc: journal append: %w", err)
	}
	if len(payload) > 0 {
		if _, err := j.b.WriteAt(payload, j.end+recHeaderSize); err != nil {
			return fmt.Errorf("ooc: journal append: %w", err)
		}
	}
	j.end += recHeaderSize + int64(len(payload))
	j.ctr.journalBytes.Add(uint64(recHeaderSize + len(payload)))
	return nil
}

// intent appends the undo image for a segment and makes it durable: the
// undo must reach the journal before the data region is overwritten.
func (j *journal) intent(pass, unit int, undo []byte) error {
	if err := j.append(recIntent, pass, unit, undo); err != nil {
		return err
	}
	return syncBackend(j.b, "journal")
}

// commit appends the post-write record carrying the transformed
// segment's checksum. It is not synced: the next intent's sync, or the
// pass barrier, makes it durable, and a resume re-checks it against the
// data either way.
func (j *journal) commit(pass, unit int, sum uint64) error {
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], sum)
	return j.append(recCommit, pass, unit, p[:])
}

// passDone appends the pass barrier record and makes the whole pass
// durable.
func (j *journal) passDone(pass int) error {
	if err := j.append(recPassDone, pass, 0, nil); err != nil {
		return err
	}
	return syncBackend(j.b, "journal")
}

// syncBackend flushes b when it supports it. A failed sync fails the
// run: the undo images and the pass barriers are only as durable as the
// syncs behind them.
func syncBackend(b Backend, what string) error {
	if s, ok := b.(syncer); ok {
		if err := s.Sync(); err != nil {
			return fmt.Errorf("ooc: syncing %s: %w", what, err)
		}
	}
	return nil
}
