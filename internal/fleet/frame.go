package fleet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// The fleet has one framing, shared by the journal file and both wire
// transports:
//
//	u32le payload length | u32le CRC-32C of payload | payload
//
// The length bounds every read and the checksum tells a whole frame from a
// torn or corrupted one, so a reader stops at the last good frame instead
// of decoding garbage.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxFrame bounds a frame's declared length, so a corrupt prefix fails
// fast. A pre-v3 peer's NDJSON line `{"t"…` reads as the length
// 0x2274227b ≈ 578 M and lands here rather than in a read.
const maxFrame = 1 << 28

var errFrameSize = errors.New("frame length over limit")

// frameWriter accumulates one payload — it is the io.Writer a gob encoder
// writes into — and emits it with flush as one frame in one Write.
type frameWriter struct {
	w   io.Writer
	buf []byte // 8 header bytes, then the payload so far
}

func (f *frameWriter) Write(p []byte) (int, error) {
	if len(f.buf) == 0 {
		f.buf = append(f.buf, make([]byte, 8)...)
	}
	f.buf = append(f.buf, p...)
	return len(p), nil
}

// flush writes the accumulated payload, possibly empty, as one frame.
func (f *frameWriter) flush() error {
	f.Write(nil) // an empty payload still needs its header
	binary.LittleEndian.PutUint32(f.buf[0:], uint32(len(f.buf)-8))
	binary.LittleEndian.PutUint32(f.buf[4:], crc32.Checksum(f.buf[8:], crcTable))
	_, err := f.w.Write(f.buf)
	f.buf = f.buf[:0]
	return err
}

// discard drops a partly accumulated payload.
func (f *frameWriter) discard() { f.buf = f.buf[:0] }

// frameReader reads frames from r into one reused buffer: a returned
// payload is valid until the next call.
type frameReader struct {
	r   io.Reader
	hdr [8]byte
	buf []byte
}

// next returns the next frame's payload. io.EOF means r ended on a frame
// boundary; a frame cut short is io.ErrUnexpectedEOF.
func (f *frameReader) next() ([]byte, error) {
	if _, err := io.ReadFull(f.r, f.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(f.hdr[0:]))
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d bytes", errFrameSize, n)
	}
	// Grow the buffer only as bytes arrive (64 KiB, then doubling): a
	// bit-flipped length costs what the stream holds, not what it claims.
	buf := f.buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), max(len(buf), 64<<10))
		buf = slices.Grow(buf, step)
		if _, err := io.ReadFull(f.r, buf[len(buf):len(buf)+step]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		buf = buf[:len(buf)+step]
	}
	f.buf = buf
	if crc32.Checksum(buf, crcTable) != binary.LittleEndian.Uint32(f.hdr[4:]) {
		return nil, errors.New("frame checksum mismatch")
	}
	return buf, nil
}

// errUnencodable marks a message gob refused to encode: the message is
// bad, the link is fine.
var errUnencodable = errors.New("not wire-encodable")

// wire is one connection's message stream: a single gob stream, so each
// type's definition crosses once per connection, cut into one frame per
// message so reads are bounded and checked.
type wire struct {
	fw  frameWriter
	enc *gob.Encoder
	out msg

	fr  frameReader
	in  bytes.Reader
	dec *gob.Decoder
	got msg
}

func newWire(rw io.ReadWriter) *wire {
	c := &wire{fw: frameWriter{w: rw}, fr: frameReader{r: bufio.NewReader(rw)}}
	c.enc = gob.NewEncoder(&c.fw)
	c.dec = gob.NewDecoder(&c.in)
	return c
}

// send writes m as one frame. gob cannot continue a stream after a failed
// Encode: definitions of types nested inside an `any` are marked sent but
// leave with the failed message. So a failure replaces the encoder and
// writes an empty frame, which tells the reader to replace its decoder
// too, and returns an errUnencodable the caller may recover from.
func (c *wire) send(m msg) error {
	c.out = m
	err := c.enc.Encode(&c.out)
	if err == nil {
		return c.fw.flush()
	}
	c.fw.discard()
	c.enc = gob.NewEncoder(&c.fw)
	if ferr := c.fw.flush(); ferr != nil {
		return ferr
	}
	return fmt.Errorf("%w: %v", errUnencodable, err)
}

// recv reads the next message. The result is valid until the next recv.
func (c *wire) recv() (*msg, error) {
	for {
		p, err := c.fr.next()
		if err != nil {
			return nil, err
		}
		if len(p) == 0 {
			c.dec = gob.NewDecoder(&c.in)
			continue
		}
		c.in.Reset(p)
		// gob leaves fields absent from the stream untouched.
		c.got = msg{}
		if err := c.dec.Decode(&c.got); err != nil {
			return nil, err
		}
		return &c.got, nil
	}
}
