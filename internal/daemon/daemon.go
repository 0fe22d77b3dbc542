// Package daemon is the front-end plumbing cmd/dynallocd and
// cmd/dynrouter share: binding a listener and publishing its port,
// serving HTTP until a context ends, a ticker loop, JSON replies, and
// the -scenario flag.
package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"dynalloc/internal/process"
)

// ParseScenario parses a -scenario flag: "A" or "B", any case.
func ParseScenario(s string) (process.Scenario, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "A":
		return process.ScenarioA, nil
	case "B":
		return process.ScenarioB, nil
	}
	return 0, fmt.Errorf("unknown scenario %q (want A or B)", s)
}

// Listen binds addr (resolving an ephemeral :0 port) and, when portFile
// is named, publishes the resolved address there for scripts that
// started the daemon with port 0 — written to a temp name and renamed,
// so a poller never reads a half-written file. Binding synchronously
// means a port collision fails boot instead of surfacing minutes later.
func Listen(what, addr, portFile string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%s listen: %w", what, err)
	}
	if portFile != "" {
		tmp := portFile + ".tmp"
		err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644)
		if err == nil {
			err = os.Rename(tmp, portFile)
		}
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("port file: %w", err)
		}
	}
	return ln, nil
}

// ServeHTTP serves h on a listener bound to addr (see Listen) until ctx
// is done, then calls quiesce — a daemon's chance to refuse new
// mutations before in-flight requests drain; nil for none — and shuts
// down gracefully. The channel yields the server's terminal error.
func ServeHTTP(ctx context.Context, name, addr, portFile string, h http.Handler, quiesce func()) (chan error, error) {
	ln, err := Listen("http", addr, portFile)
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		if quiesce != nil {
			quiesce()
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(shutdownCtx)
	}()
	go func() {
		fmt.Printf("%s: listening on %s\n", name, ln.Addr())
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			done <- err
			return
		}
		done <- nil
	}()
	return done, nil
}

// Every calls tick each `every` (default 1s) until ctx is done — the
// loop that keeps a recovery detector fresh while nothing drives it.
func Every(ctx context.Context, every time.Duration, tick func()) {
	if every <= 0 {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			tick()
		}
	}
}

// WriteJSON answers code with v as the JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteErr answers code with {"error": err}.
func WriteErr(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// PostOnly answers 405 (and returns false) for any method but POST.
func PostOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
	}
	return r.Method == http.MethodPost
}
