package workload

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadTrace: any bytes decode to a trace or to an error, never a
// panic. An accepted trace re-encodes to bytes that decode to an equal
// trace, and every node's replay generator yields Ops(node)+1
// references — one past the recording, so the stream wraps to its
// first op — without panicking.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(data)
		if err != nil {
			if tr != nil {
				t.Fatalf("ReadTrace returned a trace with error %v", err)
			}
			return
		}
		again, err := ReadTrace(tr.Encode())
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("re-encoded trace decodes differently:\n%+v\nvs\n%+v", tr, again)
		}
		prof := Profile{Name: tracePrefix + tr.Name, trace: tr}
		for n := 0; n < tr.Nodes; n++ {
			g := New(prof, n, tr.Nodes, 0)
			first := g.Peek()
			for i := uint64(0); i < tr.Ops(n); i++ {
				g.Advance()
			}
			if got := g.Peek(); got != first {
				t.Fatalf("node %d: replay wrapped to %+v, want the first op %+v", n, got, first)
			}
		}
	})
}

// TestTraceSeedsDecode pins what each checked-in FuzzReadTrace seed
// exercises: the recorded trace is accepted, every malformed one is
// rejected for its own reason.
func TestTraceSeedsDecode(t *testing.T) {
	for _, tc := range []struct{ seed, err string }{
		{"seed-recorded", ""},
		{"seed-truncated-header", "truncated header"},
		{"seed-bad-magic", "bad magic"},
		{"seed-zero-record-node", "node 0 has no records"},
		{"seed-negative-block", "negative block"},
		{"seed-trailing-bytes", "trailing bytes"},
	} {
		data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzReadTrace", tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		body, ok := strings.CutPrefix(string(data), "go test fuzz v1\n[]byte(")
		body, ok2 := strings.CutSuffix(strings.TrimSpace(body), ")")
		s, err := strconv.Unquote(body)
		if !ok || !ok2 || err != nil {
			t.Fatalf("%s is not a one-[]byte corpus file", tc.seed)
		}
		_, err = ReadTrace([]byte(s))
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s rejected: %v", tc.seed, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: got error %v, want one mentioning %q", tc.seed, err, tc.err)
		}
	}
}
