package tilestore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"inplace/internal/ooc"
)

// Ingest: row-major AoS records stream in, checksummed column segments
// land on disk. Each chunk is one skinny AoS→SoA transpose — count
// records × fields columns, the Theorem-7 specialization — run either
// through the injected typed engine (the planner-cache path the public
// package wires) or through the built-in fallback. Chunks whose AoS
// image exceeds the memory budget never become resident at all: they
// spill to a scratch file and the out-of-core panel pipeline transposes
// them there within the budget, after which the columns stream into the
// data file with an incremental checksum.

// spillFileName is the scratch file a spilled chunk transposes in.
// Transient: removed after every spill, ignored by Open.
const spillFileName = "spill.tmp"

// copyBufSize is the streaming-copy granularity of the spill path.
const copyBufSize = 1 << 20

// Ingest consumes exactly Rows records (Rows*Fields*ElemSize bytes) of
// row-major AoS data from r, converts each chunk to columnar segments,
// and seals the dataset. On success the handle becomes a sealed read
// handle; on failure — including a truncated reader — the dataset stays
// in the ingesting state and remains invisible to Open.
func (d *Dataset) Ingest(r io.Reader) error {
	if d.state != stateIngesting {
		return stateErr("ingest", d.state)
	}
	for c := 0; c < d.g.chunks; c++ {
		count := d.g.rowsIn(c)
		chunkBytes := count * d.g.rowBytes
		var err error
		if int64(chunkBytes) <= d.memBudget {
			err = d.ingestResident(c, count, chunkBytes, r)
		} else {
			err = d.ingestSpilled(c, count, chunkBytes, r)
		}
		if err != nil {
			return err
		}
		d.ctr.chunksIngested.inc()
	}
	return d.seal()
}

// seal is the commit point: the data file is synced, then meta.json
// flips atomically to sealed. Everything before the flip is invisible;
// everything after it is durable.
func (d *Dataset) seal() error {
	if err := d.f.Sync(); err != nil {
		return err
	}
	if err := writeMeta(d.dir, d.meta(stateSealed)); err != nil {
		return err
	}
	d.state = stateSealed
	return nil
}

// ingestResident handles a chunk that fits the memory budget: read it
// whole, transpose in place, write the column segments out of the
// resulting SoA image.
func (d *Dataset) ingestResident(c, count, chunkBytes int, r io.Reader) error {
	if d.scratch == nil {
		d.scratch = make([]byte, d.g.chunkMem)
	}
	buf := d.scratch[:chunkBytes]
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("tilestore: reading chunk %d: %w", c, err)
	}
	if err := d.aosToSOA(buf, count); err != nil {
		return fmt.Errorf("tilestore: transposing chunk %d: %w", c, err)
	}
	colBytes := count * d.g.s.ElemSize
	var hdr [ooc.FrameHeaderSize]byte
	for f := 0; f < d.g.s.Fields; f++ {
		payload := buf[f*colBytes : (f+1)*colBytes]
		off := d.g.segOff(c, f)
		ooc.PutFrame(hdr[:], d.segFrame(c, f, ooc.CRC32C(payload)))
		if err := d.writeAt(hdr[:], off); err != nil {
			return err
		}
		if err := d.writeAt(payload, off+ooc.FrameHeaderSize); err != nil {
			return err
		}
		d.ctr.segmentsWritten.inc()
	}
	return nil
}

// ingestSpilled handles a chunk larger than the memory budget: stream
// its AoS bytes to a scratch file, transpose there through the
// out-of-core panel pipeline, then stream each column — checksumming
// incrementally — into its segment.
func (d *Dataset) ingestSpilled(c, count, chunkBytes int, r io.Reader) (err error) {
	d.ctr.spills.inc()
	path := filepath.Join(d.dir, spillFileName)
	sf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		sf.Close()
		if rmErr := os.Remove(path); err == nil && rmErr != nil {
			err = rmErr
		}
	}()
	if _, err := io.CopyN(sf, r, int64(chunkBytes)); err != nil {
		return fmt.Errorf("tilestore: spilling chunk %d: %w", c, err)
	}
	// The out-of-core scratch floor is one minimum-width panel and one
	// line; a budget below it is raised, never rejected — the spill
	// already committed to out-of-core execution.
	budget := d.memBudget
	if floor := 2 * int64(max(count, d.g.s.Fields)) * int64(d.g.s.ElemSize); budget < floor {
		budget = floor
	}
	if _, err := ooc.Run(sf, ooc.Config{
		Rows:     count,
		Cols:     d.g.s.Fields,
		ElemSize: d.g.s.ElemSize,
		Budget:   budget,
		Workers:  d.workers,
	}); err != nil {
		return fmt.Errorf("tilestore: spill transpose of chunk %d: %w", c, err)
	}
	colBytes := count * d.g.s.ElemSize
	copyBuf := make([]byte, min(colBytes, copyBufSize))
	var hdr [ooc.FrameHeaderSize]byte
	for f := 0; f < d.g.s.Fields; f++ {
		srcOff := int64(f) * int64(colBytes)
		segOff := d.g.segOff(c, f)
		dstOff := segOff + ooc.FrameHeaderSize
		var sum uint64
		for done := 0; done < colBytes; {
			n := min(colBytes-done, len(copyBuf))
			if _, err := sf.ReadAt(copyBuf[:n], srcOff+int64(done)); err != nil {
				return fmt.Errorf("tilestore: reading spilled chunk %d: %w", c, err)
			}
			sum = ooc.CRC32CUpdate(sum, copyBuf[:n])
			if err := d.writeAt(copyBuf[:n], dstOff+int64(done)); err != nil {
				return err
			}
			done += n
		}
		ooc.PutFrame(hdr[:], d.segFrame(c, f, sum))
		if err := d.writeAt(hdr[:], segOff); err != nil {
			return err
		}
		d.ctr.segmentsWritten.inc()
	}
	return nil
}

// segFrame builds the frame header for (chunk c, column f); the payload
// length comes from the schema geometry, never from the caller.
func (d *Dataset) segFrame(c, f int, sum uint64) ooc.Frame {
	return ooc.Frame{
		Kind:       segKind,
		Tag:        uint32(f),
		Unit:       uint64(c),
		PayloadLen: uint64(d.g.rowsIn(c) * d.g.s.ElemSize),
		PayloadSum: sum,
		Gen:        d.g.gen,
	}
}

// aosToSOA converts one resident chunk in place: count records of
// Fields×ElemSize become Fields contiguous columns. The injected engine
// runs first; a nil engine or an ErrEngineElem decline falls back to
// the built-in path — the out-of-core pipeline over an in-memory
// backend, which handles records of any element width.
func (d *Dataset) aosToSOA(buf []byte, count int) error {
	if fn := d.engine.AOSToSOA; fn != nil {
		err := fn(buf, count, d.g.s.Fields, d.g.s.ElemSize)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrEngineElem) {
			return err
		}
	}
	return d.builtinTranspose(buf, count, d.g.s.Fields)
}

// soaToAOS is the inverse conversion used by row scans.
func (d *Dataset) soaToAOS(buf []byte, count int) error {
	if fn := d.engine.SOAToAOS; fn != nil {
		err := fn(buf, count, d.g.s.Fields, d.g.s.ElemSize)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrEngineElem) {
			return err
		}
	}
	return d.builtinTranspose(buf, d.g.s.Fields, count)
}

// builtinTranspose transposes a rows×cols element matrix held in buf
// through the out-of-core engine over an in-memory backend. A budget of
// twice the buffer always clears the engine's floor, so the schedule
// degenerates to one whole-matrix panel per pass.
func (d *Dataset) builtinTranspose(buf []byte, rows, cols int) error {
	_, err := ooc.Run(&byteBackend{b: buf}, ooc.Config{
		Rows:     rows,
		Cols:     cols,
		ElemSize: d.g.s.ElemSize,
		Budget:   2 * int64(len(buf)),
		Workers:  d.workers,
	})
	return err
}

// byteBackend adapts a fixed byte slice to the out-of-core engine's
// Backend interface. The engine issues one backend call at a time, so
// no locking is needed over the shared slice.
type byteBackend struct {
	b []byte
}

func (m *byteBackend) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off >= int64(len(m.b)) {
		return 0, io.EOF
	}
	n := copy(p, m.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *byteBackend) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(len(m.b)) {
		return 0, fmt.Errorf("tilestore: write [%d, %d) outside %d-byte buffer: %w",
			off, off+int64(len(p)), len(m.b), io.ErrShortWrite)
	}
	return copy(m.b[off:], p), nil
}
