package server

import (
	"testing"

	"disqo"
)

// TestMetricsText pins the server's exposition: a HELP and TYPE line per
// family, and every sample an integer, a million requests included.
func TestMetricsText(t *testing.T) {
	db, err := disqo.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	srv.conns, srv.inflight, srv.accepted, srv.shed, srv.requests, srv.draining = 2, 1, 12, 3, 1_000_000, true
	const want = `# HELP disqod_sessions Live client sessions.
# TYPE disqod_sessions gauge
disqod_sessions 0
# HELP disqod_conns Open client connections.
# TYPE disqod_conns gauge
disqod_conns 2
# HELP disqod_inflight_requests Requests currently executing.
# TYPE disqod_inflight_requests gauge
disqod_inflight_requests 1
# HELP disqod_accepted_total Connections accepted since start.
# TYPE disqod_accepted_total counter
disqod_accepted_total 12
# HELP disqod_shed_total Connections refused at the connection limit.
# TYPE disqod_shed_total counter
disqod_shed_total 3
# HELP disqod_requests_total Requests completed since start.
# TYPE disqod_requests_total counter
disqod_requests_total 1000000
# HELP disqod_draining 1 while the server is draining.
# TYPE disqod_draining gauge
disqod_draining 1
`
	if got := string(srv.MetricsText()); got != want {
		t.Errorf("MetricsText:\n%s\nwant:\n%s", got, want)
	}
}
