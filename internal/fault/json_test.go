package fault

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/simnet"
)

// fullSchedule exercises every event kind and field.
func fullSchedule() *Schedule {
	s := &Schedule{}
	s.Crash(90*time.Second, "gw-0", 2*time.Minute)
	s.Partition(3*time.Minute, time.Minute,
		[]simnet.NodeID{"gw-0", "z0-act"}, []simnet.NodeID{"gw-1", "cloud"})
	s.DegradeLink(5*time.Minute, 30*time.Second, "gw-1", "cloud", 250*time.Millisecond, 0.35)
	s.CutLink(6*time.Minute, 0, "gw-2", "cloud")
	s.TransferDomain(7*time.Minute, "z1-occ", "cityB")
	s.UpgradeStack(8*time.Minute, "gw-3")
	s.DrainBattery(9*time.Minute, "z2-s0")
	return s
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := fullSchedule()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got Schedule
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(s.events, got.events) {
		t.Fatalf("round trip differs:\n in: %+v\nout: %+v", s.events, got.events)
	}
}

func TestScheduleJSONUsesKindNames(t *testing.T) {
	s := &Schedule{}
	s.Crash(time.Minute, "n", 30*time.Second)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	text := string(data)
	for _, want := range []string{`"crash"`, `"recover"`, `"1m0s"`, `"1m30s"`} {
		if !strings.Contains(text, want) {
			t.Errorf("encoding %s lacks %s", text, want)
		}
	}
	if strings.Contains(text, `"kind":1`) {
		t.Errorf("encoding leaked enum integer: %s", text)
	}
}

func TestEmptyScheduleJSON(t *testing.T) {
	var s Schedule
	data, err := json.Marshal(&s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if string(data) != "[]" {
		t.Fatalf("empty schedule encodes as %s, want []", data)
	}
	var got Schedule
	if err := json.Unmarshal([]byte("[]"), &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Len() != 0 {
		t.Fatalf("decoded %d events from []", got.Len())
	}
}

func TestKindTextRoundTrip(t *testing.T) {
	for k, name := range kindNames {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if string(text) != name {
			t.Fatalf("%v marshals to %q, want %q", k, text, name)
		}
		var back Kind
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		if back != k {
			t.Fatalf("%q decodes to %v, want %v", text, back, k)
		}
	}
	var bad Kind
	if err := bad.UnmarshalText([]byte("no-such-kind")); err == nil {
		t.Fatal("unknown kind name accepted")
	}
	if _, err := Kind(99).MarshalText(); err == nil {
		t.Fatal("unknown kind value encoded")
	}
}

func TestUnmarshalRejectsBadDurations(t *testing.T) {
	var ev Event
	if err := json.Unmarshal([]byte(`{"at":"soon","kind":"crash"}`), &ev); err == nil {
		t.Fatal("bad at accepted")
	}
	if err := json.Unmarshal([]byte(`{"at":"1s","kind":"link-degrade","latency":"fast"}`), &ev); err == nil {
		t.Fatal("bad latency accepted")
	}
}

// TestUnmarshalRejectsOutOfRange rejects what parses but no world can
// apply — a negative time or latency, a loss that is not a probability —
// with an error naming the field.
func TestUnmarshalRejectsOutOfRange(t *testing.T) {
	for _, c := range []struct{ field, in string }{
		{"at", `{"at":"-1s","kind":"crash","node":"a"}`},
		{"latency", `{"at":"1s","kind":"link-degrade","from":"a","to":"b","latency":"-1s"}`},
		{"loss", `{"at":"1s","kind":"link-degrade","from":"a","to":"b","loss":-0.1}`},
		{"loss", `{"at":"1s","kind":"link-degrade","from":"a","to":"b","loss":1.5}`},
	} {
		var ev Event
		err := json.Unmarshal([]byte(c.in), &ev)
		if err == nil {
			t.Errorf("%s accepted", c.in)
			continue
		}
		if !strings.Contains(err.Error(), "event "+c.field) {
			t.Errorf("%s: error %q does not name %q", c.in, err, c.field)
		}
	}
	var ev Event
	if err := json.Unmarshal([]byte(`{"at":"0s","kind":"link-degrade","from":"a","to":"b","latency":"0s","loss":1}`), &ev); err != nil {
		t.Fatalf("the range ends were rejected: %v", err)
	}
}

func TestScheduleString(t *testing.T) {
	out := fullSchedule().String()
	for _, want := range []string{"crash", "gw-0", "partition-start", "latency=250ms loss=0.35", "cityB"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() lacks %q:\n%s", want, out)
		}
	}
}

