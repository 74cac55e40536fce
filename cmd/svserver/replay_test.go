package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"knnshapley/internal/jobs"
	"knnshapley/internal/journal"
	"knnshapley/internal/registry"
	"knnshapley/internal/server"
	"knnshapley/internal/wire"
)

// replayServer opens the journal under dir and builds a server over the
// same data directory — the "restarted process" half of the replay tests.
func replayServer(t *testing.T, dir string) (*server.Server, []journal.JobState, *journal.Writer) {
	t.Helper()
	jw, states, err := journal.Open(journal.Config{Dir: filepath.Join(dir, "journal")})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{MaxBody: 1 << 20, Jobs: jobs.Config{Workers: 2, QueueDepth: 16}, Registry: registry.Config{Dir: dir}, Journal: jw})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); jw.Close() })
	return srv, states, jw
}

// uploadTestData registers the standard datasets in dir's registry via a
// throwaway server and returns their refs plus the uninterrupted-run values
// the replay must reproduce.
func uploadTestData(t *testing.T, dir string) (trainRef, testRef string, baseline []float64) {
	t.Helper()
	srv, err := server.New(server.Config{MaxBody: 1 << 20, Jobs: jobs.Config{Workers: 2, QueueDepth: 16}, Registry: registry.Config{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	req := testRequest()
	var up wire.UploadResponse
	if rec := do(t, srv, http.MethodPost, "/datasets", req.Train, &up); rec.Code != http.StatusCreated {
		t.Fatalf("upload train: %d %s", rec.Code, rec.Body.String())
	}
	trainRef = up.ID
	if rec := do(t, srv, http.MethodPost, "/datasets", req.Test, &up); rec.Code != http.StatusCreated {
		t.Fatalf("upload test: %d %s", rec.Code, rec.Body.String())
	}
	testRef = up.ID
	rec, resp := postValue(t, srv, valueRequest{Algorithm: "exact", K: 2, TrainRef: trainRef, TestRef: testRef})
	if rec.Code != http.StatusOK {
		t.Fatalf("baseline value: %d %s", rec.Code, rec.Body.String())
	}
	return trainRef, testRef, resp.Values
}

// envelope builds the journaled spec envelope for a by-ref exact request in
// the shape older writers journaled: besides v and request it carries the
// cacheKey, totalUnits and meta keys that current writers no longer emit,
// so every replay test also proves those envelopes still replay.
func envelope(t *testing.T, trainRef, testRef string) []byte {
	t.Helper()
	return []byte(fmt.Sprintf(`{"v":%d,"cacheKey":"%s|%s|exact|k=2|metric=|precision=float64|","totalUnits":2,`+
		`"request":{"algorithm":"exact","k":2,"trainRef":%q,"testRef":%q},`+
		`"meta":{"algorithm":"exact","trainN":6,"trainRef":%q,"testRef":%q}}`,
		wire.JobEnvelopeVersion, trainRef, testRef, trainRef, testRef, trainRef, testRef))
}

// A job journaled as submitted (and one as running) before a crash is
// re-submitted on restart under its original ID and completes with values
// bit-identical to an uninterrupted run.
func TestReplayQueuedAndRunningJobs(t *testing.T) {
	dir := t.TempDir()
	trainRef, testRef, baseline := uploadTestData(t, dir)

	// The "crashed process": journal two live jobs, then vanish without
	// terminal records (no Close — a crash would not have flushed either,
	// but these writes are inline-fsynced durable records).
	jw, _, err := journal.Open(journal.Config{Dir: filepath.Join(dir, "journal")})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	jw.Submitted("j000005", now, envelope(t, trainRef, testRef))
	jw.Submitted("j000009", now.Add(time.Millisecond), envelope(t, trainRef, testRef))
	jw.Running("j000009", now.Add(2*time.Millisecond))
	jw.Close()

	srv, states, jw2 := replayServer(t, dir)
	if len(states) != 2 {
		t.Fatalf("replayed %d states, want 2", len(states))
	}
	srv.Replay(states)
	jw2.PurgeReplayed()

	for _, id := range []string{"j000005", "j000009"} {
		pollUntil(t, srv, id, func(st jobStatusResponse) bool { return st.Status == "done" })
		var resp valueResponse
		if rec := do(t, srv, http.MethodGet, "/jobs/"+id+"/result", nil, &resp); rec.Code != http.StatusOK {
			t.Fatalf("result of replayed %s: %d %s", id, rec.Code, rec.Body.String())
		}
		if len(resp.Values) != len(baseline) {
			t.Fatalf("replayed %s: %d values, want %d", id, len(resp.Values), len(baseline))
		}
		for i := range baseline {
			if resp.Values[i] != baseline[i] {
				t.Fatalf("replayed %s value %d = %v, want %v (bit-identical)", id, i, resp.Values[i], baseline[i])
			}
		}
	}
	if st := srv.Jobs().Stats(); st.Replayed != 2 {
		t.Fatalf("Stats.Replayed = %d, want 2", st.Replayed)
	}
	// A fresh submission must not collide with the replayed IDs.
	var st jobStatusResponse
	rec := do(t, srv, http.MethodPost, "/jobs",
		valueRequest{Algorithm: "exact", K: 2, TrainRef: trainRef, TestRef: testRef}, &st)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("post-replay submit: %d %s", rec.Code, rec.Body.String())
	}
	if st.ID != "j000010" {
		t.Fatalf("post-replay job ID %s, want j000010", st.ID)
	}
}

// A journaled job whose dataset vanished from the registry is failed with a
// descriptive error — never silently dropped, never run against the wrong
// data.
func TestReplayMissingDatasetFails(t *testing.T) {
	dir := t.TempDir()
	jw, _, err := journal.Open(journal.Config{Dir: filepath.Join(dir, "journal")})
	if err != nil {
		t.Fatal(err)
	}
	jw.Submitted("j000001", time.Now(), envelope(t, "00000000deadbeef", "00000000cafebabe"))
	jw.Close()

	srv, states, _ := replayServer(t, dir)
	srv.Replay(states)

	var st jobStatusResponse
	if rec := do(t, srv, http.MethodGet, "/jobs/j000001", nil, &st); rec.Code != http.StatusOK {
		t.Fatalf("status of failed replay: %d %s", rec.Code, rec.Body.String())
	}
	if st.Status != "failed" {
		t.Fatalf("replayed job status %q, want failed", st.Status)
	}
	if !strings.Contains(st.Error, "replay after restart failed") || !strings.Contains(st.Error, "not found") {
		t.Fatalf("replayed job error %q lacks the descriptive replay message", st.Error)
	}
	if s := srv.Jobs().Stats(); s.Replayed != 0 || s.Restored != 1 {
		t.Fatalf("stats replayed=%d restored=%d, want 0 and 1", s.Replayed, s.Restored)
	}
}

// An unknown envelope version fails the job instead of guessing at its
// meaning.
func TestReplayUnknownEnvelopeVersionFails(t *testing.T) {
	dir := t.TempDir()
	jw, _, err := journal.Open(journal.Config{Dir: filepath.Join(dir, "journal")})
	if err != nil {
		t.Fatal(err)
	}
	env, _ := json.Marshal(wire.JobEnvelope{V: 99, Request: json.RawMessage(`{}`)})
	jw.Submitted("j000001", time.Now(), env)
	jw.Close()

	srv, states, _ := replayServer(t, dir)
	srv.Replay(states)
	var st jobStatusResponse
	do(t, srv, http.MethodGet, "/jobs/j000001", nil, &st)
	if st.Status != "failed" || !strings.Contains(st.Error, "version") {
		t.Fatalf("status %q error %q, want a failed job naming the version", st.Status, st.Error)
	}
}

// Terminal jobs inside TTL are restored as retrievable history: the status
// survives the restart, but a done job's report does not — its result is
// 410 Gone, canceled/failed jobs reproduce their message.
func TestReplayRestoresTerminalHistory(t *testing.T) {
	dir := t.TempDir()
	trainRef, testRef, _ := uploadTestData(t, dir)
	jw, _, err := journal.Open(journal.Config{Dir: filepath.Join(dir, "journal")})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	jw.Submitted("j000001", now.Add(-2*time.Minute), envelope(t, trainRef, testRef))
	jw.Finished("j000001", journal.StateDone, "", now.Add(-time.Minute))
	jw.Submitted("j000002", now.Add(-2*time.Minute), envelope(t, trainRef, testRef))
	jw.Finished("j000002", journal.StateFailed, "engine exploded", now.Add(-time.Minute))
	// Expired: finished far outside the 15m default TTL.
	jw.Submitted("j000003", now.Add(-2*time.Hour), envelope(t, trainRef, testRef))
	jw.Finished("j000003", journal.StateDone, "", now.Add(-time.Hour))
	jw.Close()

	srv, states, _ := replayServer(t, dir)
	srv.Replay(states)

	var st jobStatusResponse
	if rec := do(t, srv, http.MethodGet, "/jobs/j000001", nil, &st); rec.Code != http.StatusOK || st.Status != "done" {
		t.Fatalf("restored done job: %d, status %q", rec.Code, st.Status)
	}
	if rec := do(t, srv, http.MethodGet, "/jobs/j000001/result", nil, nil); rec.Code != http.StatusGone {
		t.Fatalf("restored done job result: %d, want 410 Gone (%s)", rec.Code, rec.Body.String())
	}
	if rec := do(t, srv, http.MethodGet, "/jobs/j000002", nil, &st); rec.Code != http.StatusOK ||
		st.Status != "failed" || st.Error != "engine exploded" {
		t.Fatalf("restored failed job: %d, %+v", rec.Code, st)
	}
	if rec := do(t, srv, http.MethodGet, "/jobs/j000003", nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("expired job: %d, want 404", rec.Code)
	}
	if s := srv.Jobs().Stats(); s.Restored != 2 {
		t.Fatalf("Stats.Restored = %d, want 2", s.Restored)
	}
}

// End to end across two journal generations: a server whose jobs run
// through the journal, "crash", and a second replay — the journal written
// by the first replay (plus PurgeReplayed) must itself be replayable.
func TestReplaySurvivesSecondRestart(t *testing.T) {
	dir := t.TempDir()
	trainRef, testRef, baseline := uploadTestData(t, dir)
	jw, _, err := journal.Open(journal.Config{Dir: filepath.Join(dir, "journal")})
	if err != nil {
		t.Fatal(err)
	}
	jw.Submitted("j000001", time.Now(), envelope(t, trainRef, testRef))
	jw.Close()

	// First restart: replay re-journals, purges, completes the job.
	srv1, states, jw1 := replayServer(t, dir)
	srv1.Replay(states)
	jw1.PurgeReplayed()
	pollUntil(t, srv1, "j000001", func(st jobStatusResponse) bool { return st.Status == "done" })
	srv1.Close()
	jw1.Close()

	// Second restart: the terminal history must come back from the journal
	// the first replay wrote.
	srv2, states2, _ := replayServer(t, dir)
	srv2.Replay(states2)
	var st jobStatusResponse
	if rec := do(t, srv2, http.MethodGet, "/jobs/j000001", nil, &st); rec.Code != http.StatusOK || st.Status != "done" {
		t.Fatalf("second-restart history: %d, status %q", rec.Code, st.Status)
	}
	if rec := do(t, srv2, http.MethodGet, "/jobs/j000001/result", nil, nil); rec.Code != http.StatusGone {
		t.Fatalf("second-restart result: %d, want 410 Gone", rec.Code)
	}
	_ = baseline
}

// TestJournalEnvelopesPerKind pins the envelope bytes each journaled job
// kind is submitted with, so replay across versions keeps working: a value
// request journals by reference with no kind, a delta and an index build
// under their kinds.
func TestJournalEnvelopesPerKind(t *testing.T) {
	dir := t.TempDir()
	srv, _, jw := replayServer(t, dir)
	req := testRequest()
	var up wire.UploadResponse
	mustDo(t, srv, http.MethodPost, "/datasets", req.Train, &up)
	trainRef := up.ID
	mustDo(t, srv, http.MethodPost, "/datasets", req.Test, &up)
	testRef := up.ID

	var value, index jobStatusResponse
	mustDo(t, srv, http.MethodPost, "/jobs", req, &value)
	mustDo(t, srv, http.MethodPut, "/datasets/"+trainRef+"/delta", wire.DeltaRequest{Remove: []int{0}}, nil)
	mustDo(t, srv, http.MethodPost, "/indexes", wire.IndexRequest{Dataset: trainRef, Kind: "kd", K: 2}, &index)
	for _, id := range []string{value.ID, index.ID} {
		pollUntil(t, srv, id, func(st jobStatusResponse) bool { return terminalState(st.Status) })
	}
	srv.Close()
	jw.Close()

	_, states, err := journal.Open(journal.Config{Dir: filepath.Join(dir, "journal")})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, js := range states {
		got[js.ID] = string(js.Envelope)
	}
	want := map[string]string{
		value.ID:  fmt.Sprintf(`{"v":1,"request":{"algorithm":"exact","k":2,"testRef":%q,"trainRef":%q}}`, testRef, trainRef),
		"j000002": fmt.Sprintf(`{"v":1,"kind":"delta","request":{"parent":%q,"remove":[0]}}`, trainRef),
		index.ID:  fmt.Sprintf(`{"v":1,"kind":"index","request":{"dataset":%q,"kind":"kd","k":2,"eps":0.1}}`, trainRef),
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("job %s journaled envelope\n %s\nwant\n %s", id, got[id], w)
		}
	}
}
