package dgram

import (
	"errors"
	"net"
	"sync"
)

// Acceptor is the accept loop the frame servers share (the shard's
// router.Server, the primary's replica.Streamer): Serve on a listener,
// one goroutine per connection, every live connection tracked so Close
// can drop them all and wait for the handlers. The zero value is ready.
type Acceptor struct {
	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve accepts connections on ln until Close (or an unrecoverable
// accept error, which it returns), runs handle on each in a goroutine
// of its own — closing the connection when handle returns — and blocks
// until every handler has exited.
func (a *Acceptor) Serve(ln net.Listener, handle func(net.Conn)) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		ln.Close()
		return errors.New("dgram: server already closed")
	}
	a.ln = ln
	if a.conns == nil {
		a.conns = make(map[net.Conn]struct{})
	}
	a.mu.Unlock()

	var err error
	for {
		c, aerr := ln.Accept()
		if aerr != nil {
			a.mu.Lock()
			closed := a.closed
			a.mu.Unlock()
			if !closed {
				err = aerr
			}
			break
		}
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			c.Close()
			break
		}
		a.conns[c] = struct{}{}
		a.wg.Add(1)
		a.mu.Unlock()
		go func() {
			defer a.drop(c)
			handle(c)
		}()
	}
	a.wg.Wait()
	return err
}

// Close stops accepting, closes every live connection, and waits for
// the handlers to exit.
func (a *Acceptor) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	ln := a.ln
	for c := range a.conns {
		c.Close()
	}
	a.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	a.wg.Wait()
	return err
}

func (a *Acceptor) drop(c net.Conn) {
	a.mu.Lock()
	delete(a.conns, c)
	a.mu.Unlock()
	c.Close()
	a.wg.Done()
}
