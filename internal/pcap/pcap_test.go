package pcap

import (
	"testing"
)

func TestDirString(t *testing.T) {
	if Out.String() != "out" || In.String() != "in" {
		t.Fatal("Dir strings")
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	records := []Record{
		{At: 1, Dir: Out, Flow: FlowKey{Local: "a", Remote: "b"}, Size: 1500, Seq: 0, Len: 1460},
		{At: 2, Dir: In, Flow: FlowKey{Local: "a", Remote: "b"}, Size: 40, IsAck: true, Ack: 1460},
		{At: 3, Dir: Out, Flow: FlowKey{Local: "a", Remote: "c"}, Size: 200, Seq: 99, Len: 160},
	}
	path := t.TempDir() + "/trace.gob"
	if err := SaveTrace(path, records); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range got {
		if got[i] != records[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], records[i])
		}
	}
}

func TestTraceFileEmpty(t *testing.T) {
	path := t.TempDir() + "/empty.gob"
	if err := SaveTrace(path, nil); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(path)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v err %v", got, err)
	}
}

func TestLoadTraceMissing(t *testing.T) {
	if _, err := LoadTrace(t.TempDir() + "/nope.gob"); err == nil {
		t.Fatal("missing file loaded")
	}
}
