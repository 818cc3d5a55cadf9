package simdbd_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"simdb/internal/core"
)

// TestServingOverTCPTransport repeats the core serving tour with the
// tcp transport: worker nodes run as child OS processes and result
// frames cross real TCP sockets on their way to the HTTP stream. The
// collector runs on the coordinator, so streaming semantics must hold
// unchanged — first row before completion, full row count, summary.
func TestServingOverTCPTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp transport spawns worker processes; skipped in -short")
	}
	db, base := bootServer(t, func(cfg *core.Config) {
		cfg.Transport = "tcp"
		cfg.FrameSize = 8
	})
	seedReviews(t, base, 200)
	db.Cluster().SetSimNetLatency(time.Millisecond)

	resp := postQuery(t, base, "", `for $r in dataset Reviews return $r.id`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("first row: %v", err)
	}
	var rec record
	if err := json.Unmarshal(line, &rec); err != nil || rec.Row == nil {
		t.Fatalf("first record is not a row: %s", line)
	}
	if len(db.Cluster().ActiveQueries()) == 0 {
		t.Fatal("tcp transport: first row arrived only after completion")
	}
	rows, sum, werr := readStream(t, br)
	if werr != nil {
		t.Fatalf("stream failed: %+v", werr)
	}
	if got := len(rows) + 1; got != 200 {
		t.Fatalf("streamed %d rows, want 200", got)
	}
	if sum.Rows != 200 {
		t.Errorf("summary rows = %d", sum.Rows)
	}

	// A similarity-index query crosses node boundaries too.
	runQuery(t, base, "", `create index nix on Reviews(username) type ngram(2);`)
	simRows, _ := runQuery(t, base, "", `
		for $r in dataset Reviews
		where edit-distance($r.username, 'marla') <= 1
		return $r.id`)
	if len(simRows) == 0 {
		t.Error("similarity query over tcp returned no rows")
	}
}
