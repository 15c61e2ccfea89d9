package qtrace

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// FuzzReadJSONL drives the trace reader and every consumer of its output
// with arbitrary bytes: hand-edited or foreign files may be rejected,
// but nothing may panic or hang. The seeds are a parent cycle and a real
// single-run export (ipda-sim -nodes 6 -field 50 -seed 3 -qtrace).
func FuzzReadJSONL(f *testing.F) {
	for _, name := range []string{"testdata/cycle.jsonl", "testdata/sim.jsonl"} {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"dropped":3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		lines, _, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		groups, order := GroupByTrial(lines)
		for _, k := range order {
			spans := groups[k]
			Analyze(spans)
			if err := WriteText(io.Discard, spans); err != nil {
				t.Fatal(err)
			}
			if err := WriteChromeTrace(io.Discard, spans); err != nil {
				t.Fatal(err)
			}
		}
	})
}
