package daemon

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestServeHTTPPublishesPortAndQuiescesFirst: an ephemeral port lands
// in the port file, the handler answers there, and on shutdown quiesce
// runs before the channel yields.
func TestServeHTTPPublishesPortAndQuiescesFirst(t *testing.T) {
	portFile := filepath.Join(t.TempDir(), "port")
	ctx, cancel := context.WithCancel(context.Background())
	quiesced := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if PostOnly(w, r) {
			WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
		}
	})
	done, err := ServeHTTP(ctx, "test", "127.0.0.1:0", portFile, h, func() { close(quiesced) })
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(portFile)
	if err != nil || !strings.HasPrefix(string(b), "127.0.0.1:") || strings.HasSuffix(string(b), ":0\n") {
		t.Fatalf("port file %q, %v", b, err)
	}
	resp, err := http.Post("http://"+strings.TrimSpace(string(b))+"/", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != `{"ok":true}` {
		t.Fatalf("POST answered %d %q", resp.StatusCode, body)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	select {
	case <-quiesced:
	default:
		t.Fatal("server shut down without calling quiesce")
	}
	if _, err := Listen("again", "256.0.0.1:0", ""); err == nil || !strings.Contains(err.Error(), "again listen") {
		t.Fatalf("bad address: %v", err)
	}
}

func TestPostOnlyAndWriteErr(t *testing.T) {
	rec := httptest.NewRecorder()
	if PostOnly(rec, httptest.NewRequest(http.MethodGet, "/", nil)) || rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET passed PostOnly (%d)", rec.Code)
	}
	rec = httptest.NewRecorder()
	WriteErr(rec, http.StatusConflict, io.ErrUnexpectedEOF)
	if rec.Code != http.StatusConflict || strings.TrimSpace(rec.Body.String()) != `{"error":"unexpected EOF"}` {
		t.Fatalf("WriteErr wrote %d %q", rec.Code, rec.Body.String())
	}
}

func TestEveryTicksUntilCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ticks := 0
	Every(ctx, time.Millisecond, func() {
		if ticks++; ticks == 3 {
			cancel()
		}
	})
	if ticks != 3 {
		t.Fatalf("%d ticks, want 3", ticks)
	}
}
