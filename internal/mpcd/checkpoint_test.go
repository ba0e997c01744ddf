package mpcd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// seedSessions primes a server with two sessions and a warm anchor in
// the first, returning the responses a resumed server must match.
func seedSessions(t *testing.T, url string) []QueryResponse {
	t.Helper()
	do(t, "POST", url+"/v1/sessions", createRequest{ID: "ck1", Facts: transferFacts(), Budget: 1 << 10})
	do(t, "POST", url+"/v1/sessions", createRequest{ID: "ck2", Generator: "cycle", N: 32})
	return []QueryResponse{
		query(t, url, "ck1", anchorQ),
		query(t, url, "ck2", "L(x, z) :- E(x, y), E(y, z)"),
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{})
	seedSessions(t, ts1.URL)

	statusBefore := make(map[string]string)
	for _, id := range []string{"ck1", "ck2"} {
		_, raw := do(t, "GET", ts1.URL+"/v1/sessions/"+id, nil)
		statusBefore[id] = string(raw)
	}

	if err := s1.SaveSnapshot(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	// The drained server rejects everything typed.
	status, raw := do(t, "POST", ts1.URL+"/v1/query", queryRequest{Session: "ck1", Query: anchorQ})
	if status != http.StatusServiceUnavailable || errCode(t, raw) != CodeDraining {
		t.Fatalf("post-snapshot query: %d %s", status, raw)
	}

	s2, err := LoadSnapshot(dir, Config{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	// Session status survives byte-for-byte: ledger, counters, anchor.
	for id, want := range statusBefore {
		_, raw := do(t, "GET", ts2.URL+"/v1/sessions/"+id, nil)
		if string(raw) != want {
			t.Fatalf("session %s status drifted across restart:\n  before %s\n  after  %s", id, want, raw)
		}
	}
	if s2.Statz().RestoredSessions != 2 {
		t.Fatalf("statz: %+v", s2.Statz())
	}

	// The restored anchor is warm: a covered query reuses immediately,
	// with zero communication, on the restored fragments.
	qr := query(t, ts2.URL, "ck1", coveredQ3)
	if qr.Path != PathReused || qr.Comm != 0 {
		t.Fatalf("restored session lost its warm distribution: %+v", qr)
	}
}

// TestResumeByteIdentity is the kill-and-resume invariant in-process:
// snapshot mid-script, resume in a fresh server, and the remaining
// responses are byte-identical to an uninterrupted reference run.
func TestResumeByteIdentity(t *testing.T) {
	script := []string{coveredQ1, uncoveredQ, anchorQ, coveredQ2}

	// Reference: one server runs setup + script straight through.
	_, tsRef := newTestServer(t, Config{})
	seedSessions(t, tsRef.URL)
	var want []string
	for _, q := range script {
		_, raw := do(t, "POST", tsRef.URL+"/v1/query", queryRequest{Session: "ck1", Query: q})
		want = append(want, string(raw))
	}

	// Interrupted: setup, snapshot, restart, then the same script.
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{})
	seedSessions(t, ts1.URL)
	if err := s1.SaveSnapshot(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	s2, err := LoadSnapshot(dir, Config{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	for i, q := range script {
		_, raw := do(t, "POST", ts2.URL+"/v1/query", queryRequest{Session: "ck1", Query: q})
		if string(raw) != want[i] {
			t.Fatalf("query %d (%q) diverged after resume:\n  want %s\n  got  %s", i, q, want[i], raw)
		}
	}
}

func TestCheckpointEndpoint(t *testing.T) {
	// Without a configured directory the endpoint refuses typed.
	_, tsNo := newTestServer(t, Config{})
	status, raw := do(t, "POST", tsNo.URL+"/v1/checkpoint", nil)
	if status != http.StatusConflict || errCode(t, raw) != CodeConflict {
		t.Fatalf("checkpoint without dir: %d %s", status, raw)
	}

	dir := t.TempDir()
	_, ts := newTestServer(t, Config{SnapshotDir: dir})
	seedSessions(t, ts.URL)
	status, raw = do(t, "POST", ts.URL+"/v1/checkpoint", nil)
	if status != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", status, raw)
	}
	var cr checkpointResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if cr.Dir != dir || cr.Sessions != 2 {
		t.Fatalf("checkpoint response %+v", cr)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("manifest missing: %v", err)
	}
	if _, err := LoadSnapshot(dir, Config{}); err != nil {
		t.Fatalf("endpoint snapshot does not load: %v", err)
	}
}

func TestLoadSnapshotRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{})
	seedSessions(t, ts.URL)
	if err := s.SaveSnapshot(dir); err != nil {
		t.Fatalf("save: %v", err)
	}

	// Flip one byte in a fragment image: the CRC must catch it.
	storePath := filepath.Join(dir, "session-ck1.store")
	raw, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatalf("read store: %v", err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(storePath, raw, 0o644); err != nil {
		t.Fatalf("corrupt store: %v", err)
	}
	if _, err := LoadSnapshot(dir, Config{}); err == nil {
		t.Fatal("LoadSnapshot accepted a corrupted fragment image")
	}

	// Missing manifest.
	if _, err := LoadSnapshot(t.TempDir(), Config{}); err == nil {
		t.Fatal("LoadSnapshot accepted an empty directory")
	}

	// Future manifest version.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, manifestName), []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatalf("write manifest: %v", err)
	}
	if _, err := LoadSnapshot(dir2, Config{}); err == nil {
		t.Fatal("LoadSnapshot accepted a future manifest version")
	}

	// Traversal in the manifest's store path stays inside the dir.
	dir3 := t.TempDir()
	m := `{"version": 1, "seed": 1, "sessions": [{"id": "x", "p": 8, "store": "../../etc/passwd"}]}`
	if err := os.WriteFile(filepath.Join(dir3, manifestName), []byte(m), 0o644); err != nil {
		t.Fatalf("write manifest: %v", err)
	}
	if _, err := LoadSnapshot(dir3, Config{}); err == nil {
		t.Fatal("LoadSnapshot followed a traversal store path")
	}

	// A cluster size outside [1, maxSessionP] next to a store image of
	// exactly that many nodes: the image and the node-count check both
	// pass, so the manifest's p itself must be rejected, as an error
	// rather than a panic building the cluster.
	for _, p := range []int{0, maxSessionP + 1} {
		dir := t.TempDir()
		parts := make([]*rel.Instance, p)
		for i := range parts {
			parts[i] = rel.NewInstance()
		}
		var img bytes.Buffer
		if err := policy.EncodeStore(&img, policy.NewStableStore(parts)); err != nil {
			t.Fatalf("encode %d-node store: %v", p, err)
		}
		if err := os.WriteFile(filepath.Join(dir, "s.store"), img.Bytes(), 0o644); err != nil {
			t.Fatalf("write store: %v", err)
		}
		m := fmt.Sprintf(`{"version": 1, "seed": 1, "sessions": [{"id": "x", "p": %d, "store": "s.store"}]}`, p)
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(m), 0o644); err != nil {
			t.Fatalf("write manifest: %v", err)
		}
		if _, err := LoadSnapshot(dir, Config{}); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("LoadSnapshot with p = %d: %v, want an out-of-range error", p, err)
		}
	}
}
