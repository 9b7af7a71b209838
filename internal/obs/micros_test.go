// The integer timestamp formatter against the encoding/json float path it
// stands in for. Internal test package: the formatter is unexported.
package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// checkMicros fails unless appendJSONMicros writes ps exactly as
// encoding/json writes float64(ps)/1e6.
func checkMicros(t *testing.T, ps int64) {
	t.Helper()
	got := appendJSONMicros([]byte("x"), ps)
	f, err := json.Marshal(float64(ps) / 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte("x"), f...); !bytes.Equal(got, want) {
		t.Errorf("%d ps: got %s, want %s", ps, got[1:], want[1:])
	}
}

func TestAppendJSONMicros(t *testing.T) {
	for _, ps := range []int64{
		0, 1, -1, 10, 999_999, -999_999, 1_000_000, -1_000_000, 1_000_001, 1_500_000,
		123_456_789_012_345, -123_456_789_012_345,
		1e15 - 1, -(1e15 - 1), 1e15, -1e15, 1e15 + 1,
		// Not a float64: the float path writes …740992, the exact
		// decimal …740993, so a threshold too far up shows here.
		1<<53 + 1, -(1<<53 + 1),
		123_456_789_012_345_678, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	} {
		checkMicros(t, ps)
	}
}

// FuzzAppendJSONMicros: for any int64, and for the same value folded into
// the integer path's range, appendJSONMicros and encoding/json agree. The
// seed corpus runs under plain go test; the nightly workflow fuzzes for
// real.
func FuzzAppendJSONMicros(f *testing.F) {
	for _, ps := range []int64{0, 1, -1, 999_999, 1e6, -1e6, 1e15 - 1, 1e15, -1e15, math.MaxInt64, math.MinInt64} {
		f.Add(ps)
	}
	f.Fuzz(func(t *testing.T, ps int64) {
		checkMicros(t, ps)
		checkMicros(t, ps%1e15)
	})
}
