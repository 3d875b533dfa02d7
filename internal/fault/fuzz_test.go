package fault

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzScheduleJSON holds the schedule decoder to three properties on
// any input: decoding never panics, String never panics on what it
// decoded, and a decoded schedule that encodes decodes back to equal
// events. The seeds are the committed corpus schedules.
func FuzzScheduleJSON(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "corpus", "chaos", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no corpus schedules to seed from (%v)", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var entry struct {
			Schedule json.RawMessage `json:"schedule"`
		}
		if err := json.Unmarshal(data, &entry); err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add([]byte(entry.Schedule))
	}
	f.Add([]byte(`[{"at":"1s","kind":"link-degrade","from":"a","to":"b","latency":"-1s"}]`))
	f.Add([]byte(`[{"at":"-1s","kind":"crash","node":"a"},{"at":"0s","kind":"link-degrade","loss":1.5}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Schedule
		if json.Unmarshal(data, &s) != nil {
			return
		}
		_ = s.String()
		out, err := json.Marshal(&s)
		if err != nil {
			return
		}
		var back Schedule
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-decoding %s: %v", out, err)
		}
		if !reflect.DeepEqual(normalized(s.events), normalized(back.events)) {
			t.Fatalf("round trip differs:\n in: %+v\nout: %+v", s.events, back.events)
		}
	})
}

// normalized maps the encodings that cannot survive a round trip onto
// one value: no events and no groups encode the same as empty ones.
func normalized(evs []Event) []Event {
	out := make([]Event, len(evs))
	for i, ev := range evs {
		if len(ev.Groups) == 0 {
			ev.Groups = nil
		}
		out[i] = ev
	}
	return out
}
