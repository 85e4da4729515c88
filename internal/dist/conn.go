package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
)

// maxFramePayload bounds one frame's payload: far above any real partial (the
// widest, a gather-pass partial, is ~4 MB for a 5,000-row partition of 650
// candidates; a 20,000 × 50 binary fit's partials come to 23.1 MB), and the
// point past which a length prefix is rejected unread.
const maxFramePayload = 1 << 30

// recvStep is how far the receive buffer may grow on a length prefix's word
// alone; beyond it, capacity follows the bytes that have actually arrived.
const recvStep = 1 << 20

// castagnoli is the CRC-32C table guarding every frame, the same polynomial
// colstore uses for block checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Conn is one ordered, reliable message stream between coordinator and
// worker. Send and Recv carry whole protocol messages (type byte +
// payload); implementations add framing, checksums, and fault semantics.
// A Conn is used from one goroutine per direction at a time.
//
// The slice Recv returns is valid until the next Recv on the same Conn: an
// implementation may return its own receive buffer and overwrite it with the
// next frame, so a caller decodes (or copies) a message before receiving
// again, and a wrapper that holds a message back across a Recv on the Conn
// it wraps copies it. Send does not retain msg.
//
// Errors that implement frame.Transienter with Transient() == true are
// retryable in place — the next Recv may deliver the frame the failed call
// did not. All other errors are permanent: the peer is gone.
type Conn interface {
	Send(msg []byte) error
	Recv() ([]byte, error)
	Close() error
}

// FrameError is a permanent framing violation on the wire: a CRC mismatch,
// an oversized length prefix, or a short frame. Unlike a transient fault,
// a broken frame means the stream can no longer be trusted.
type FrameError struct {
	Reason string
}

// Error implements error.
func (e *FrameError) Error() string { return "dist: frame: " + e.Reason }

// streamConn frames messages over any reliable byte stream as
// [u32 payload length | payload | u32 CRC-32C(payload)], little-endian.
type streamConn struct {
	c    io.Closer
	br   *bufio.Reader
	bw   *bufio.Writer
	rbuf []byte // receive buffer: the last message Recv returned lives here
}

// NewConn frames protocol messages over a reliable byte stream — a TCP
// connection or one end of a net.Pipe.
func NewConn(c net.Conn) Conn {
	return &streamConn{c: c, br: bufio.NewReaderSize(c, 1<<16), bw: bufio.NewWriterSize(c, 1<<16)}
}

// Send implements Conn.
func (s *streamConn) Send(msg []byte) error {
	if len(msg) == 0 {
		return &FrameError{Reason: "empty message"}
	}
	if len(msg) > maxFramePayload {
		return &FrameError{Reason: fmt.Sprintf("message of %d bytes exceeds frame cap", len(msg))}
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(msg)))
	if _, err := s.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := s.bw.Write(msg); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(hdr[:], crc32.Checksum(msg, castagnoli))
	if _, err := s.bw.Write(hdr[:]); err != nil {
		return err
	}
	return s.bw.Flush()
}

// Recv implements Conn. The message is read into a buffer the connection
// keeps and hands out again on the next call.
func (s *streamConn) Recv() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(s.br, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n == 0 || n > maxFramePayload {
		return nil, &FrameError{Reason: fmt.Sprintf("bad frame length %d", n)}
	}
	// A buffer several times this frame's size was grown for a pass of far
	// bigger partials that has ended; keeping it would pin that pass's frame
	// size per connection for the rest of the fit.
	if cap(s.rbuf) > recvStep && n < cap(s.rbuf)/4 {
		s.rbuf = nil
	}
	msg := s.rbuf[:0]
	for len(msg) < n {
		if len(msg) == cap(msg) {
			// Room is granted only as far as the peer has backed its length
			// prefix with bytes: a prefix that lies costs the peer what it
			// sends, not this process what it claims.
			grown := make([]byte, len(msg), min(n, max(recvStep, 8*len(msg))))
			copy(grown, msg)
			msg = grown
		}
		end := min(n, cap(msg))
		if _, err := io.ReadFull(s.br, msg[len(msg):end]); err != nil {
			return nil, midFrame(err)
		}
		msg = msg[:end]
	}
	s.rbuf = msg
	if _, err := io.ReadFull(s.br, hdr[:]); err != nil {
		return nil, midFrame(err)
	}
	if got, want := crc32.Checksum(msg, castagnoli), binary.LittleEndian.Uint32(hdr[:]); got != want {
		return nil, &FrameError{Reason: fmt.Sprintf("frame checksum mismatch: %08x != %08x", got, want)}
	}
	return msg, nil
}

// midFrame turns the clean io.EOF of a read that got no bytes into
// io.ErrUnexpectedEOF: past a frame's length prefix the stream owes the rest
// of the frame, and only an EOF between frames is a hangup.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Close implements Conn.
func (s *streamConn) Close() error { return s.c.Close() }
