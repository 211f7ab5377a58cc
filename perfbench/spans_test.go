package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSpanLogNestsAndWrites(t *testing.T) {
	l := newSpanLog()
	root := l.begin("run", 0)
	child := l.begin("query Q01", root)
	l.end(child, map[string]any{"rows": 4})
	l.end(root, nil)
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := l.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []span
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Name != "query Q01" {
		t.Fatalf("spans = %+v", got)
	}
	if got[1].End < got[1].Start || got[0].End < got[1].End {
		t.Fatalf("child span not inside its parent: %+v", got)
	}
}

func TestNilSpanLogRecordsNothing(t *testing.T) {
	var l *spanLog
	if id := l.begin("x", 0); id != 0 {
		t.Fatalf("nil log returned span id %d", id)
	}
	l.end(0, nil)
}
