package simdbd_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"simdb/internal/cluster"
	"simdb/internal/core"
)

// TestStreamingFirstRowBeforeCompletion proves the streaming is real:
// the first row reaches the client while the query is still executing.
// Simulated network latency stretches the job so the window is wide,
// and the assertion is on engine state (the query still in the active
// registry after the first row arrives), not on wall-clock guesswork.
func TestStreamingFirstRowBeforeCompletion(t *testing.T) {
	db, base := bootServer(t, func(cfg *core.Config) {
		cfg.FrameSize = 8
	})
	seedReviews(t, base, 400)
	db.Cluster().SetSimNetLatency(2 * time.Millisecond)

	resp := postQuery(t, base, "", `for $r in dataset Reviews return $r.id`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("first row read: %v", err)
	}
	var rec record
	if err := json.Unmarshal(line, &rec); err != nil || rec.Row == nil {
		t.Fatalf("first record is not a row: %s (err %v)", line, err)
	}
	// The first row is in hand — the query must still be running.
	if n := len(db.Cluster().ActiveQueries()); n == 0 {
		t.Fatal("first row arrived only after the query finished: streaming is buffered")
	}
	rows, sum, werr := readStream(t, br)
	if werr != nil {
		t.Fatalf("stream failed: %+v", werr)
	}
	if got := len(rows) + 1; got != 400 {
		t.Fatalf("streamed %d rows, want 400", got)
	}
	if sum.Rows != 400 {
		t.Errorf("summary rows = %d, want 400", sum.Rows)
	}
}

// TestBoundedBuffering stalls the client mid-stream and asserts the
// server does NOT keep producing into an unbounded buffer: the
// rows_streamed counter must stop climbing while the client sits on an
// unread response, far below the total row count, because backpressure
// propagates from the socket through the collector into the job's
// bounded frame channels.
func TestBoundedBuffering(t *testing.T) {
	db, base := bootServer(t, func(cfg *core.Config) {
		cfg.FrameSize = 8
		cfg.ChanCap = 2
	})
	// Wide rows (8 KiB pad) make the full result ~32 MiB — far past
	// anything kernel socket buffers could absorb, so an unbounded
	// server-side producer would be unambiguous.
	const total = 4000
	runQuery(t, base, "", `create dataset Wide primary key id;`)
	pad := strings.Repeat("x", 8192)
	var b strings.Builder
	for i := 0; i < total; i++ {
		fmt.Fprintf(&b, "{\"id\": %d, \"pad\": %q}\n", i, pad)
	}
	iresp, err := http.Post(base+"/ingest/Wide", "application/x-ndjson",
		strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, iresp.Body)
	iresp.Body.Close()
	if iresp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", iresp.StatusCode)
	}

	before := scrapeMetric(t, base, "simdb_simdbd_http_rows_streamed")
	resp := postQuery(t, base, "", `for $r in dataset Wide return $r.pad`)
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatalf("first row: %v", err)
	}
	// Stop reading. Give the server ample time to run ahead if it were
	// going to; with bounded frames it can only get a few frames past
	// what the client consumed (socket and HTTP buffers add slack, but
	// nothing proportional to the result).
	var stalled float64
	waitFor(t, 10*time.Second, "stream to stall", func() bool {
		now := scrapeMetric(t, base, "simdb_simdbd_http_rows_streamed") - before
		if now == stalled && now > 0 {
			return true
		}
		stalled = now
		time.Sleep(100 * time.Millisecond)
		return false
	})
	if stalled >= total/2 {
		t.Fatalf("server streamed %.0f of %d rows into a stalled connection; buffering is unbounded",
			stalled, total)
	}
	// The query is still alive, waiting on the client.
	if len(db.Cluster().ActiveQueries()) == 0 {
		t.Fatal("query finished against a stalled client: rows were buffered server-side")
	}
	// Resume reading: the rest of the stream drains to a clean summary.
	rows, sum, werr := readStream(t, br)
	if werr != nil {
		t.Fatalf("stream failed after resume: %+v", werr)
	}
	if got := len(rows) + 1; got != total {
		t.Fatalf("streamed %d rows, want %d", got, total)
	}
	if sum.Rows != total {
		t.Errorf("summary rows = %d", sum.Rows)
	}
}

// TestMidStreamQueryTimeout runs a query that times out after rows
// already went out: the stream must carry partial rows under a 200 and
// terminate with a query-timeout error record (HTTP status 504 in the
// body — the status line is long gone).
func TestMidStreamQueryTimeout(t *testing.T) {
	db, base := bootServer(t, func(cfg *core.Config) {
		cfg.QueryTimeout = 300 * time.Millisecond
		cfg.FrameSize = 4
	})
	seedReviews(t, base, 300)
	db.Cluster().SetSimNetLatency(3 * time.Millisecond)

	resp := postQuery(t, base, "", `
		for $a in dataset Reviews
		for $b in dataset Reviews
		where $a.username = $b.username
		return $a.id`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// The whole job may die before the first row under tight
		// schedules; then the contract is a plain 504.
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 200 (streaming) or 504", resp.StatusCode)
		}
		if we := decodeErrorBody(t, resp); we.Code != "query-timeout" {
			t.Errorf("code = %q", we.Code)
		}
		return
	}
	rows, sum, werr := readStream(t, resp.Body)
	if sum != nil {
		t.Skip("query finished under the deadline on this machine")
	}
	if werr.Code != "query-timeout" || werr.Status != http.StatusGatewayTimeout {
		t.Errorf("terminal error = %+v, want query-timeout/504", werr)
	}
	if werr.QueryID == 0 {
		t.Error("mid-stream error record missing query_id")
	}
	t.Logf("timed out after %d streamed rows", len(rows))
}

// TestDisconnectCancelsQuery closes the client connection mid-stream
// and asserts the engine cancels the query and releases everything it
// held: active registry empty, admission slot and memory grant
// returned, no spill files left behind.
func TestDisconnectCancelsQuery(t *testing.T) {
	db, base := bootServer(t, func(cfg *core.Config) {
		cfg.FrameSize = 8
		cfg.QueryMemoryBudget = 1 << 20
	})
	seedReviews(t, base, 300)
	db.Cluster().SetSimNetLatency(2 * time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/query", strings.NewReader(`
		for $a in dataset Reviews
		for $b in dataset Reviews
		where $a.username = $b.username
		order by $a.id
		return $a.id`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "query admitted", func() bool {
		return len(db.Cluster().ActiveQueries()) > 0
	})
	failedBefore := db.Cluster().QueryManager().Stats().Failed

	cancel() // client walks away mid-query
	resp.Body.Close()

	waitFor(t, 10*time.Second, "query canceled and resources released", func() bool {
		st := db.Cluster().QueryManager().Stats()
		return len(db.Cluster().ActiveQueries()) == 0 &&
			st.Active == 0 && st.MemUsed == 0 && st.Failed > failedBefore
	})
	// No leaked spill runs from the aborted sort.
	tmp := filepath.Join(db.Cluster().Config().DataDir, "tmp")
	if ents, err := os.ReadDir(tmp); err == nil && len(ents) > 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("disconnected query leaked spill dirs: %v", names)
	}
}

// TestCrossFrontEndCancel: the embedded API and the HTTP front end share
// one queryID→cancel registry, so a query admitted through db.Execute is
// listed by GET /queries and cancelled by POST /queries/{id}/cancel.
func TestCrossFrontEndCancel(t *testing.T) {
	db, base := bootServer(t, func(cfg *core.Config) {
		cfg.FrameSize = 4
	})
	seedReviews(t, base, 80)
	db.Cluster().SetSimNetLatency(5 * time.Millisecond)

	done := make(chan error, 1)
	go func() {
		_, err := db.Execute(context.Background(), nil, `
			for $a in dataset Reviews
			for $b in dataset Reviews
			where $a.username = $b.username
			return $a.id`)
		done <- err
	}()
	var qid uint64
	waitFor(t, 5*time.Second, "embedded query listed", func() bool {
		resp, err := http.Get(base + "/queries")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var infos []struct {
			ID uint64 `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil || len(infos) == 0 {
			return false
		}
		qid = infos[0].ID
		return true
	})
	cresp, err := http.Post(fmt.Sprintf("%s/queries/%d/cancel", base, qid), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", cresp.StatusCode)
	}
	err = <-done
	var qe *cluster.QueryError
	if !errors.As(err, &qe) || qe.QueryID != qid || !errors.Is(err, context.Canceled) {
		t.Fatalf("embedded query cancelled over HTTP returned %v, want query %d canceled", err, qid)
	}
}

// TestGracefulDrain shuts the database down while a stream is open:
// the in-flight stream must complete with its summary, and new
// connections must be refused once the listener is down.
func TestGracefulDrain(t *testing.T) {
	cfg := core.Config{
		DataDir:           t.TempDir(),
		NumNodes:          2,
		PartitionsPerNode: 2,
		ServeAddr:         "127.0.0.1:0",
		FrameSize:         8,
	}
	db, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			db.Close()
		}
	}()
	base := "http://" + db.ServeAddr()
	seedReviews(t, base, 400)
	db.Cluster().SetSimNetLatency(2 * time.Millisecond)

	resp := postQuery(t, base, "", `for $r in dataset Reviews return $r.id`)
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatalf("first row: %v", err)
	}

	done := make(chan error, 1)
	go func() { done <- db.Close() }()

	// The open stream drains to completion during shutdown.
	rows, sum, werr := readStream(t, br)
	if werr != nil {
		t.Fatalf("in-flight stream killed by drain: %+v", werr)
	}
	if got := len(rows) + 1; got != 400 {
		t.Fatalf("drained stream delivered %d rows, want 400", got)
	}
	if sum.Rows != 400 {
		t.Errorf("summary rows = %d", sum.Rows)
	}
	if err := <-done; err != nil {
		t.Fatalf("Close: %v", err)
	}
	closed = true

	// The listener is gone: new requests fail at the connection level.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still accepting connections after Close")
	}
}
