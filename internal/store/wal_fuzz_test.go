package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzScanWAL feeds arbitrary bytes to the WAL scanner as a log file.
// Whatever the bytes, scanWAL must not panic, must report a valid prefix
// no longer than the input, must return records that re-frame to exactly
// that prefix (torn or corrupt bytes never yield a record that was not
// appended), and may fail only with errCorruptWAL. The seed corpus in
// testdata/fuzz/FuzzScanWAL — valid frames, a torn header, a torn
// payload, a CRC-corrupt mid-file frame and an oversized length — runs
// under plain go test; `go test -fuzz FuzzScanWAL ./internal/store`
// explores further.
func FuzzScanWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fh, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fh.Close()
		records, valid, err := scanWAL(fh)
		if err != nil {
			if !errors.Is(err, errCorruptWAL) {
				t.Fatalf("scanWAL error %v does not match errCorruptWAL", err)
			}
			return
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid = %d outside [0, %d]", valid, len(data))
		}
		var reframed []byte
		for _, rec := range records {
			reframed = appendFrame(reframed, rec)
		}
		if !bytes.Equal(reframed, data[:valid]) {
			t.Fatalf("%d records re-frame to %d bytes that differ from the %d-byte valid prefix",
				len(records), len(reframed), valid)
		}
	})
}

// TestScanWALTornHeaderAllocatesNothing: a torn tail header whose
// length field declares a payload far past EOF (here 60 MiB, under the
// maxWALRecord cap) is truncated without allocating that payload.
func TestScanWALTornHeaderAllocatesNothing(t *testing.T) {
	data := appendFrame(nil, []byte("ok"))
	first := int64(len(data))
	data = binary.LittleEndian.AppendUint32(data, 60<<20)
	data = binary.LittleEndian.AppendUint32(data, 0)
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	records, valid, err := scanWAL(fh)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || string(records[0]) != "ok" || valid != first {
		t.Fatalf("scanWAL = %d records, valid %d; want the one frame, valid %d", len(records), valid, first)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("scanWAL allocated %d B for a torn 60 MiB header, want < 1 MiB", d)
	}
}
