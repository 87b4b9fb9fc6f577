package service

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzNormalize feeds arbitrary bytes through the submission decoder
// (unknown fields rejected, as POST /v2/jobs does) and normalize. It
// must never panic. Whenever normalize accepts a request, its canonical
// form must be a fixed point: the wire request a coordinator forwards
// (requestOf) normalizes back to an equal value with the same Key — the
// property cluster forwarding relies on for both sides to compute
// identical keys — and so does every single-cell projection. The grid
// must also stay within the cell cap. The seed corpus in
// testdata/fuzz/FuzzNormalize runs under plain go test;
// `go test -fuzz FuzzNormalize ./internal/service` explores further.
func FuzzNormalize(f *testing.F) {
	lim := Limits{}.withDefaults()
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		n, err := normalize(req, lim)
		if err != nil {
			return
		}
		again, err := normalize(requestOf(n), lim)
		if err != nil {
			t.Fatalf("canonical form %+v does not normalize again: %v", n, err)
		}
		if !reflect.DeepEqual(again, n) || again.Key() != n.Key() {
			t.Fatalf("normalize is not idempotent:\n%+v\nvs\n%+v", again, n)
		}
		cells := len(n.Workloads) * len(n.Schemes)
		if got := len(n.cells()); got != cells || cells > lim.MaxCells {
			t.Fatalf("%d cells for a %d×%d grid (cap %d)", got, len(n.Workloads), len(n.Schemes), lim.MaxCells)
		}
		for i := 0; i < cells; i++ {
			cn := n.cellRequest(i)
			back, err := normalize(requestOf(cn), lim)
			if err != nil || back.Key() != cn.Key() {
				t.Fatalf("cell %d: forwarded request normalizes to key %s (err %v), want %s",
					i, back.Key(), err, cn.Key())
			}
		}
	})
}
