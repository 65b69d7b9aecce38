package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseJournal feeds arbitrary bytes to the journal parser. It must
// never panic; the intact prefix it reports must end on a line boundary
// within the data (it is what a resume truncates the file to); and the
// records it accepts, written back out one per line, must parse to the same
// records with nothing corrupted and nothing torn.
func FuzzParseJournal(f *testing.F) {
	// A real journal: two records written by Journal.Record.
	dir := f.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		f.Fatal(err)
	}
	for i, v := range []float64{1.5, -2.25} {
		if ok, err := j.Record("t/p", Hash("fuzz-seed", i), &v, 0); !ok || err != nil {
			f.Fatalf("Record = %v, %v", ok, err)
		}
	}
	j.Close()
	written, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitN(written, []byte("\n"), 3)
	fused := append(append(append([]byte(nil), lines[0]...), lines[1]...), '\n')
	flipped := bytes.Replace(written, []byte(`"crc":`), []byte(`"crc":1`), 1)

	for _, seed := range [][]byte{
		written,
		fused,   // two records fused onto one line
		flipped, // a record whose checksum no longer matches
		written[:len(written)-5],
		[]byte(`{"key":"t/p0","hash":"abc","gob":"trunc`),                     // torn tail only
		[]byte(`{"key":"t/p0","hash":"abc","wall_ms":1,"gob":"AQID"}` + "\n"), // legacy, no crc
		[]byte(`{"key":"t/p0","hash":"abc","gob":"AQID","crc":0}` + "\n"),     // explicit zero crc
		[]byte("\n \n{\n"),
		[]byte("null\n"),
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _, intact := parseJournal(data)
		if intact < 0 || intact > int64(len(data)) {
			t.Fatalf("intact %d outside [0, %d]", intact, len(data))
		}
		if intact > 0 && data[intact-1] != '\n' {
			t.Fatalf("intact %d does not end on a line boundary", intact)
		}
		var out []byte
		for _, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("accepted record %+v does not marshal: %v", rec, err)
			}
			out = append(append(out, line...), '\n')
		}
		again, corrupted, intactAgain := parseJournal(out)
		if corrupted != 0 || intactAgain != int64(len(out)) {
			t.Fatalf("re-marshalled records: %d corrupted, intact %d of %d", corrupted, intactAgain, len(out))
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("re-marshalled records parse differently:\n got %+v\nwant %+v", again, recs)
		}
	})
}
