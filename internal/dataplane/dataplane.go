// Package dataplane moves training-data shards over the wire. In the
// single-machine runtimes every worker holds its partitions in memory; a real
// cluster cannot assume that, so the master exposes the k global partitions
// D_1…D_k and remote workers fetch exactly the shards their gradient-coding
// assignment names — and re-fetch after a migration hands them new ones.
//
// The layering mirrors the rest of the repo: datasets are encoded with the
// compact float codec from internal/transport, integrity-framed with the
// CRC-32 record format from internal/checkpoint (so a flipped bit surfaces as
// checkpoint.ErrCorrupt, not a silently wrong gradient), and shipped as
// MsgPartition chunk frames over an ordinary transport.Conn.
package dataplane

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/ml"
	"github.com/hetgc/hetgc/internal/transport"
)

// magic identifies an encoded dataset blob; the trailing byte is a format
// version so a future layout change fails loudly instead of misdecoding.
const magic = "HGCD\x01"

// DefaultChunkLen is the wire chunk size for partition blobs: large enough
// that a typical shard ships in a handful of frames, small enough that a
// single frame never dominates a connection.
const DefaultChunkLen = 512 << 10

// maxEncodedLen caps a decoded partition blob, matching the transport-layer
// blob cap so anything a peer could deliver is also decodable.
const maxEncodedLen = 1 << 30

// maxClasses bounds the class count of a decoded dataset — a sanity cap far
// above any workload here, guarding the allocation path against corruption
// that survives the CRC (e.g. a hostile peer re-framing garbage).
const maxClasses = 1 << 20

// ErrNotServed is returned by Client.Fetch when the master answered with the
// not-served marker: the partition index is out of range or the master has no
// data source configured.
var ErrNotServed = errors.New("dataplane: partition not served")

// ErrProtocol is returned when a peer sends a frame the data-plane session
// does not allow (wrong type, wrong partition index, bad chunk sequence).
var ErrProtocol = errors.New("dataplane: protocol violation")

// EncodeDataset serializes d as magic + sample/dim/class counts + row-major
// features + labels, wrapped in a CRC-32 record. The blob is self-contained:
// DecodeDataset needs no side information.
func EncodeDataset(d *ml.Dataset) ([]byte, error) {
	if d == nil {
		return nil, fmt.Errorf("%w: nil dataset", ml.ErrBadData)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n, dim := d.N(), d.Dim()
	payload := make([]byte, 0, len(magic)+3*binary.MaxVarintLen64+8*(n*dim+n))
	payload = append(payload, magic...)
	payload = binary.AppendUvarint(payload, uint64(n))
	payload = binary.AppendUvarint(payload, uint64(dim))
	payload = binary.AppendUvarint(payload, uint64(d.Classes))
	for _, row := range d.Features {
		payload = transport.AppendFloat64s(payload, row)
	}
	payload = transport.AppendFloat64s(payload, d.Labels)
	return checkpoint.AppendFrame(nil, payload), nil
}

// DecodeDataset reverses EncodeDataset. Corruption anywhere — CRC mismatch,
// truncation, bad magic, trailing bytes, impossible counts — is reported
// wrapping checkpoint.ErrCorrupt before any large allocation happens.
func DecodeDataset(b []byte) (*ml.Dataset, error) {
	payload, rest, err := checkpoint.ReadFrame(b, maxEncodedLen)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after dataset frame", checkpoint.ErrCorrupt, len(rest))
	}
	if len(payload) < len(magic) || string(payload[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: dataset blob missing magic", checkpoint.ErrCorrupt)
	}
	payload = payload[len(magic):]
	var counts [3]int
	for i := range counts {
		v, w := binary.Uvarint(payload)
		if w <= 0 || v > maxEncodedLen {
			return nil, fmt.Errorf("%w: dataset header count %d unreadable", checkpoint.ErrCorrupt, i)
		}
		counts[i] = int(v)
		payload = payload[w:]
	}
	n, dim, classes := counts[0], counts[1], counts[2]
	if classes > maxClasses {
		return nil, fmt.Errorf("%w: %d classes exceeds cap %d", checkpoint.ErrCorrupt, classes, maxClasses)
	}
	// The payload length is fully determined by the header; verify before
	// trusting n*dim for allocation.
	want := 8 * (int64(n)*int64(dim) + int64(n))
	if int64(len(payload)) != want {
		return nil, fmt.Errorf("%w: dataset payload %d bytes, header implies %d", checkpoint.ErrCorrupt, len(payload), want)
	}
	d := &ml.Dataset{Features: make([][]float64, n), Classes: classes}
	for i := range d.Features {
		row, rest, err := transport.ReadFloat64s(payload, dim)
		if err != nil {
			return nil, fmt.Errorf("%w: dataset row %d: %v", checkpoint.ErrCorrupt, i, err)
		}
		d.Features[i], payload = row, rest
	}
	labels, _, err := transport.ReadFloat64s(payload, n)
	if err != nil {
		return nil, fmt.Errorf("%w: dataset labels: %v", checkpoint.ErrCorrupt, err)
	}
	d.Labels = labels
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("%w: decoded dataset invalid: %v", checkpoint.ErrCorrupt, err)
	}
	return d, nil
}

// Source serves the k global partitions of a training run, caching each
// encoded blob after first use so repeated fetches (worker churn, migrations,
// root failover) cost one encode per partition for the life of the run.
type Source struct {
	mu    sync.Mutex
	fetch func(p int) (*ml.Dataset, error)
	k     int
	blobs map[int][]byte
}

// NewSource wraps fetch, which must return partition p of the global dataset
// for p in [0, k). fetch is called at most once per partition.
func NewSource(fetch func(p int) (*ml.Dataset, error), k int) *Source {
	return &Source{fetch: fetch, k: k, blobs: make(map[int][]byte)}
}

// K returns the number of partitions served.
func (s *Source) K() int { return s.k }

// Blob returns the encoded form of partition p, encoding and caching it on
// first request. Out-of-range indices and fetch failures are errors — the
// serve loop turns them into the not-served wire marker.
func (s *Source) Blob(p int) ([]byte, error) {
	if p < 0 || p >= s.k {
		return nil, fmt.Errorf("%w: partition %d of %d", ErrNotServed, p, s.k)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.blobs[p]; ok {
		return b, nil
	}
	d, err := s.fetch(p)
	if err != nil {
		return nil, fmt.Errorf("dataplane: partition %d source: %w", p, err)
	}
	b, err := EncodeDataset(d)
	if err != nil {
		return nil, fmt.Errorf("dataplane: partition %d encode: %w", p, err)
	}
	s.blobs[p] = b
	return b, nil
}

// Answer replies to one MsgPartitionReq: the requested partition as a
// chunked MsgPartition sequence from blob, or the not-served marker
// (Chunks == 0, empty Blob) when blob errors. chunkLen <= 0 selects
// DefaultChunkLen. The returned error is a transport failure (or a protocol
// violation by the requester) — a blob miss is answered, not returned.
func Answer(conn *transport.Conn, req *transport.Envelope, blob func(p int) ([]byte, error), chunkLen int) error {
	if req.Type != transport.MsgPartitionReq {
		return fmt.Errorf("%w: %v frame on data-plane session", ErrProtocol, req.Type)
	}
	if chunkLen <= 0 {
		chunkLen = DefaultChunkLen
	}
	b, err := blob(req.Part)
	if err != nil {
		return conn.Send(&transport.Envelope{Type: transport.MsgPartition, Part: req.Part})
	}
	for _, chunk := range transport.ChunkBlob(transport.Envelope{Part: req.Part}, b, chunkLen) {
		if err := conn.Send(chunk); err != nil {
			return err
		}
	}
	return nil
}

// Serve answers MsgPartitionReq frames on conn until the peer hangs up. A
// clean peer close (or the server closing the conn itself during shutdown)
// returns nil.
func Serve(conn *transport.Conn, blob func(p int) ([]byte, error), chunkLen int) error {
	for {
		env, err := conn.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if err := Answer(conn, env, blob, chunkLen); err != nil {
			return err
		}
	}
}

// Client fetches partitions from a master's data plane. The underlying
// connection is dialed lazily and kept for the client's lifetime; a transport
// error mid-fetch tears it down and retries once on a fresh dial, so a master
// restart between fetches is invisible to the caller.
type Client struct {
	mu      sync.Mutex
	addr    string
	timeout time.Duration
	conn    *transport.Conn
}

// NewClient returns a client for the data plane at addr. timeout bounds each
// dial and each whole fetch (request through final chunk).
func NewClient(addr string, timeout time.Duration) *Client {
	return &Client{addr: addr, timeout: timeout}
}

// Fetch retrieves and decodes partition p. ErrNotServed reports the master's
// explicit refusal and is not retried; transport failures get one retry on a
// fresh connection.
func (c *Client) Fetch(p int) (*ml.Dataset, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, err := c.fetchOnce(p)
	if err == nil || errors.Is(err, ErrNotServed) {
		return d, err
	}
	c.closeLocked()
	return c.fetchOnce(p)
}

// Close releases the client's connection, if any.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeLocked()
	return nil
}

func (c *Client) closeLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

func (c *Client) fetchOnce(p int) (*ml.Dataset, error) {
	if c.conn == nil {
		conn, err := transport.Dial(c.addr, c.timeout)
		if err != nil {
			return nil, err
		}
		c.conn = conn
	}
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return nil, err
		}
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := c.conn.Send(&transport.Envelope{Type: transport.MsgPartitionReq, Part: p}); err != nil {
		return nil, err
	}
	first, err := c.conn.Recv()
	if err != nil {
		return nil, err
	}
	if first.Type != transport.MsgPartition || first.Part != p {
		return nil, fmt.Errorf("%w: got %v part %d, want partition %d", ErrProtocol, first.Type, first.Part, p)
	}
	if first.Chunks == 0 {
		return nil, fmt.Errorf("%w: partition %d", ErrNotServed, p)
	}
	chunks := []*transport.Envelope{first}
	for len(chunks) < first.Chunks {
		env, err := c.conn.Recv()
		if err != nil {
			return nil, err
		}
		if env.Type != transport.MsgPartition || env.Part != p {
			return nil, fmt.Errorf("%w: %v part %d interleaved in partition %d fetch", ErrProtocol, env.Type, env.Part, p)
		}
		chunks = append(chunks, env)
	}
	blob, err := transport.JoinBlobChunks(chunks)
	if err != nil {
		return nil, err
	}
	return DecodeDataset(blob)
}
