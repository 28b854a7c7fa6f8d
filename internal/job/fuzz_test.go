package job

import (
	"bytes"
	"reflect"
	"testing"

	"phishare/internal/rng"
)

// FuzzReadJSON drives the job-set decoder behind phisched -input with
// arbitrary bytes. Malformed input must come back as an error, never a
// panic; a set that decodes must re-encode through StreamWriter and decode
// again to equal jobs. The seed corpus (testdata/fuzz/FuzzReadJSON) holds
// one malformed case per validation rule.
func FuzzReadJSON(f *testing.F) {
	var set bytes.Buffer
	if err := WriteJSON(&set, GenerateTableOneSet(3, rng.New(5).Fork("tableI"))); err != nil {
		f.Fatal(err)
	}
	f.Add(set.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		sw, err := NewStreamWriter(&out)
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
		again, err := ReadJSON(&out)
		if err != nil {
			t.Fatalf("re-encoded set does not decode: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(jobs, again) {
			t.Fatalf("round trip changed the set:\nread  %+v\nagain %+v", jobs, again)
		}
	})
}
