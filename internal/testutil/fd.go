package testutil

import (
	"os"
	"testing"
	"time"
)

// VerifyNoFDLeaks snapshots the process's open file-descriptor count
// and registers a cleanup that fails the test if the count has not
// returned to that level by the end of the test. Use it in tests that
// open sockets or files behind abstractions (servers, clients, the
// WAL) where a leaked descriptor would otherwise go
// unnoticed until the process hits its rlimit.
//
// Counting reads /proc/self/fd, so the check silently no-ops on
// platforms without procfs.
func VerifyNoFDLeaks(t testing.TB) {
	t.Helper()
	before, ok := countFDs()
	if !ok {
		return
	}
	t.Cleanup(func() {
		// Close(2) is synchronous but the goroutines doing the closing
		// may still be finishing; give them the same grace VerifyNoLeaks
		// does.
		deadline := time.Now().Add(3 * time.Second)
		after, _ := countFDs()
		for after > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			after, _ = countFDs()
		}
		if after > before {
			t.Errorf("file descriptor leak: %d open before test, %d after", before, after)
		}
	})
}

func countFDs() (int, bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, false
	}
	// The ReadDir itself holds one fd; it is closed by the time we
	// return, and both snapshots pay the same cost anyway.
	return len(ents), true
}
