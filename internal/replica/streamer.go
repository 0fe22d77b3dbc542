package replica

import (
	"errors"
	"fmt"
	"net"
	"time"

	"dynalloc/internal/dgram"
	"dynalloc/internal/metrics"
	"dynalloc/internal/vfs"
)

// StreamerConfig configures the primary-side replication listener.
type StreamerConfig struct {
	// FS and Dir locate the primary's WAL + checkpoint directory — the
	// same directory the live journal writes.
	FS  vfs.FS
	Dir string
	// LastSeq reports the primary's durable seq (journal.LastSeq); it
	// feeds heartbeats and the divergent-subscriber check.
	LastSeq func() uint64
	// OnPromote quiesces the primary when a follower fences it: reject
	// new mutations, drain the journal, and return the final durable
	// seq. The streamer then ships the remaining tail and acknowledges
	// with PROMOTE_OK(finalSeq). Nil means fencing is refused.
	OnPromote func(force bool) (uint64, error)
	// Heartbeat is the caught-up heartbeat cadence (default 250ms).
	Heartbeat time.Duration
	// Poll is the caught-up tail poll interval (default 10ms).
	Poll time.Duration
	// BatchRecords caps records per REC_BATCH frame (default 256).
	BatchRecords int
}

func (c *StreamerConfig) fill() error {
	if c.Dir == "" {
		return errors.New("replica: streamer needs a directory")
	}
	if c.LastSeq == nil {
		return errors.New("replica: streamer needs a LastSeq source")
	}
	if c.FS == nil {
		c.FS = vfs.OS
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 250 * time.Millisecond
	}
	if c.Poll <= 0 {
		c.Poll = 10 * time.Millisecond
	}
	return nil
}

// Streamer serves the primary's WAL to subscribed followers: one
// Shipper per connection pumping frames off disk, heartbeats while
// caught up, and the PROMOTE stand-down handshake. It runs the accept
// loop router.Server runs (dgram.Acceptor).
type Streamer struct {
	cfg StreamerConfig
	acc dgram.Acceptor
}

// NewStreamer returns a Streamer for the given config.
func NewStreamer(cfg StreamerConfig) (*Streamer, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Streamer{cfg: cfg}, nil
}

// Serve accepts subscriptions on ln until Close, then returns nil once
// every subscription has ended — or the accept error that stopped it.
func (s *Streamer) Serve(ln net.Listener) error {
	if err := s.acc.Serve(ln, s.handle); err != nil {
		return fmt.Errorf("replica: accept: %w", err)
	}
	return nil
}

// Close stops accepting, drops every subscription, and waits for the
// per-connection goroutines to finish.
func (s *Streamer) Close() error { return s.acc.Close() }

// handle runs one subscription: expect SUBSCRIBE, then pump the log to
// the follower forever — records while behind, heartbeats while caught
// up — until the connection breaks, the streamer closes, or a PROMOTE
// fence ends the primary's reign.
func (s *Streamer) handle(c net.Conn) {
	fr := dgram.NewReader(c)
	fw := dgram.NewWriter(c)

	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	t, payload, err := fr.ReadFrame()
	if err != nil || t != dgram.TSubscribe {
		return
	}
	sub, err := dgram.DecodeSubscribeReq(payload)
	if err != nil {
		return
	}
	c.SetReadDeadline(time.Time{})
	metrics.AddCounter("replica.stream.subscriptions", 1)

	// A subscriber claiming a seq we never issued is on a divergent
	// timeline (it outlived a primary restore); rewind it onto ours.
	force := sub.AfterSeq > s.cfg.LastSeq()
	ship := NewShipper(ShipperConfig{
		FS:            s.cfg.FS,
		Dir:           s.cfg.Dir,
		BatchRecords:  s.cfg.BatchRecords,
		ForceSnapshot: force,
	}, sub.AfterSeq)
	defer ship.Close()

	// The pump owns all writes; a side goroutine watches the connection
	// for the PROMOTE fence (and for the follower going away — its read
	// error closes the conn, failing the pump's next write).
	promoteCh := make(chan dgram.PromoteReq, 1)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			t, payload, err := fr.ReadFrame()
			if err != nil {
				c.Close()
				return
			}
			if t == dgram.TPromote {
				if pr, derr := dgram.DecodePromoteReq(payload); derr == nil {
					select {
					case promoteCh <- pr:
					default:
					}
				}
			}
		}
	}()

	var hbuf []byte
	var lastHB time.Time
	for {
		select {
		case pr := <-promoteCh:
			s.standDown(pr, ship, fw)
			return
		default:
		}
		if _, err := ship.PumpFrames(fw); err != nil {
			if errors.Is(err, ErrStreamGap) {
				metrics.AddCounter("replica.stream.gaps", 1)
			}
			return
		}
		// Caught up: heartbeat on cadence, then wait out the poll
		// interval (or a promote fence / subscriber hangup).
		if time.Since(lastHB) >= s.cfg.Heartbeat {
			hbuf = dgram.AppendHeartbeat(hbuf[:0], dgram.Heartbeat{LastSeq: s.cfg.LastSeq()})
			if err := fw.WriteFrame(dgram.THeartbeat, hbuf); err != nil {
				return
			}
			lastHB = time.Now()
		}
		select {
		case pr := <-promoteCh:
			s.standDown(pr, ship, fw)
			return
		case <-readerDone:
			return
		case <-time.After(s.cfg.Poll):
		}
	}
}

// standDown handles a PROMOTE fence: quiesce the primary via
// OnPromote, ship whatever tail the drain left on disk, and
// acknowledge with the final durable seq. By the time the follower
// reads PROMOTE_OK it has (in stream order) already received every
// record up to that seq.
func (s *Streamer) standDown(pr dgram.PromoteReq, ship *Shipper, fw *dgram.Writer) {
	if s.cfg.OnPromote == nil {
		return // fencing unsupported: drop the conn, follower times out
	}
	finalSeq, err := s.cfg.OnPromote(pr.Force)
	if err != nil {
		return
	}
	if _, err := ship.PumpFrames(fw); err != nil {
		return
	}
	fw.WriteFrame(dgram.TPromoteOK, dgram.AppendPromoteOK(nil, dgram.PromoteOK{LastSeq: finalSeq}))
	metrics.AddCounter("replica.stream.standdowns", 1)
}
