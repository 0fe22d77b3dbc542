package dgram

import (
	"net"
	"sync/atomic"
	"testing"
)

// TestAcceptorServeCloseLifecycle: handlers run per connection, Close
// drops live connections and waits for their handlers, Serve returns
// nil after Close, and a closed Acceptor refuses to serve again.
func TestAcceptorServeCloseLifecycle(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var a Acceptor
	var entered, exited atomic.Int32
	ready := make(chan struct{}, 2)
	served := make(chan error, 1)
	go func() {
		served <- a.Serve(ln, func(c net.Conn) {
			entered.Add(1)
			ready <- struct{}{}
			var b [1]byte
			c.Read(b[:]) // parks until Close drops the connection
			exited.Add(1)
		})
	}()
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		<-ready
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if entered.Load() != 2 || exited.Load() != 2 {
		t.Fatalf("Close returned with %d of %d handlers exited", exited.Load(), entered.Load())
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after Close: %v", err)
	}
	if a.Close() != nil {
		t.Fatal("second Close must be a no-op")
	}
	ln2, _ := net.Listen("tcp", "127.0.0.1:0")
	if err := a.Serve(ln2, func(net.Conn) {}); err == nil {
		t.Fatal("a closed Acceptor served again")
	}
	if _, err := ln2.Accept(); err == nil {
		t.Fatal("the refused listener was left open")
	}
}
