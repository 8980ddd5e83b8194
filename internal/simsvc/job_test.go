package simsvc

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestDoneClosesAfterTerminalHook pins the terminal ordering at the job
// level: while the onTerminal hook (journal fsync, resume counters,
// registry eviction) is still running, Done must not be observable.
func TestDoneClosesAfterTerminalHook(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	j := &Job{done: make(chan struct{})}
	j.onTerminal = func(*Job) {
		close(entered)
		<-release
	}
	j.mu.Lock()
	note := j.finish(JobDone, nil)
	j.mu.Unlock()
	go note()

	<-entered
	select {
	case <-j.Done():
		t.Fatal("Done observable while the terminal hook is still running")
	default:
	}
	close(release)
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("Done never closed after the terminal hook returned")
	}
}

// TestTerminalRecordDurableBeforeDone pins the same ordering end to end:
// the moment a job's Done fires, its terminal record is already in the
// journal file, so a crash right after cannot resurrect the job.
func TestTerminalRecordDurableBeforeDone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	s := newService(t, Config{Workers: 2, JournalPath: path})
	defer s.Shutdown(context.Background())
	j := submitAndWait(t, s, smallReq())

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if rec.Op == journalOpTerminal && rec.ID == j.ID {
			if rec.State != string(JobDone) {
				t.Fatalf("terminal record state %q, want %q", rec.State, JobDone)
			}
			return
		}
	}
	t.Fatalf("Done fired before job %s's terminal record reached the journal:\n%s", j.ID, data)
}
