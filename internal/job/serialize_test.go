package job

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"phishare/internal/rng"
)

func TestJSONRoundTrip(t *testing.T) {
	jobs := GenerateTableOneSet(50, rng.New(9))
	var buf bytes.Buffer
	if err := WriteJSON(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(jobs) {
		t.Fatalf("loaded %d of %d", len(loaded), len(jobs))
	}
	for i := range jobs {
		if !reflect.DeepEqual(jobs[i], loaded[i]) {
			t.Fatalf("job %d changed in round trip:\n%+v\nvs\n%+v", i, jobs[i], loaded[i])
		}
	}
}

func TestJSONEmptySet(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadJSON(&buf)
	if err != nil || len(loaded) != 0 {
		t.Fatalf("empty round trip: %v, %v", loaded, err)
	}
}

func TestReadJSONRejects(t *testing.T) {
	cases := map[string]string{
		"garbage":        "not json",
		"wrong version":  `{"version": 99, "jobs": []}`,
		"unknown field":  `{"version": 1, "jobs": [], "extra": 1}`,
		"bad phase kind": `{"version": 1, "jobs": [{"id":1,"name":"x","workload":"w","mem_mb":100,"threads":60,"actual_peak_mb":90,"phases":[{"kind":"warp","duration_ms":10}]}]}`,
		"invalid job":    `{"version": 1, "jobs": [{"id":1,"name":"x","workload":"w","mem_mb":0,"threads":60,"actual_peak_mb":90,"phases":[{"kind":"host","duration_ms":10}]}]}`,
		"trailing data":  `{"version": 1, "jobs": []} {}`,
		"duplicate ids":  `{"version": 1, "jobs": [{"id":1,"name":"x","workload":"w","mem_mb":10,"threads":60,"actual_peak_mb":9,"phases":[{"kind":"host","duration_ms":10}]},{"id":1,"name":"y","workload":"w","mem_mb":10,"threads":60,"actual_peak_mb":9,"phases":[{"kind":"host","duration_ms":10}]}]}`,
	}
	for name, src := range cases {
		if _, err := ReadJSON(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestJSONPreservesSimulationBehaviour(t *testing.T) {
	// The real test of fidelity: a loaded set must simulate identically.
	jobs := GenerateTableOneSet(20, rng.New(10))
	var buf bytes.Buffer
	if err := WriteJSON(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if TotalSequentialTime(jobs) != TotalSequentialTime(loaded) {
		t.Error("sequential time changed through serialization")
	}
	for i := range jobs {
		if jobs[i].OffloadTime() != loaded[i].OffloadTime() {
			t.Errorf("job %d offload time changed", i)
		}
	}
}

func TestStreamWriterMatchesWriteJSON(t *testing.T) {
	jobs := GenerateTableOneSet(25, rng.New(77).Fork("tableI"))

	var batch bytes.Buffer
	if err := WriteJSON(&batch, jobs); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	sw, err := NewStreamWriter(&stream)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := sw.Write(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if sw.Count() != len(jobs) {
		t.Errorf("Count() = %d, want %d", sw.Count(), len(jobs))
	}
	if batch.String() != stream.String() {
		t.Errorf("stream output diverges from WriteJSON:\nbatch:\n%s\nstream:\n%s",
			batch.String(), stream.String())
	}

	got, err := ReadJSON(&stream)
	if err != nil {
		t.Fatalf("stream output not loadable: %v", err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("roundtrip lost jobs: %d of %d", len(got), len(jobs))
	}
}

func TestStreamWriterEmptySet(t *testing.T) {
	var batch, stream bytes.Buffer
	if err := WriteJSON(&batch, nil); err != nil {
		t.Fatal(err)
	}
	sw, err := NewStreamWriter(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if batch.String() != stream.String() {
		t.Errorf("empty-set output diverges:\nbatch: %q\nstream: %q", batch.String(), stream.String())
	}
	if _, err := ReadJSON(&stream); err != nil {
		t.Errorf("empty stream set not loadable: %v", err)
	}
}
