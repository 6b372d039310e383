package netrun

import (
	"os"
	"strings"
	"sync"
)

// diagLog records every daemon diagnostic this test binary writes and
// passes each on to standard error.
var diagLog struct {
	sync.Mutex
	buf strings.Builder
}

type diagRecorder struct{}

func (diagRecorder) Write(b []byte) (int, error) {
	diagLog.Lock()
	diagLog.buf.Write(b)
	diagLog.Unlock()
	return os.Stderr.Write(b)
}

func init() { diagOut = diagRecorder{} }

// Diagnostics returns every daemon diagnostic logged so far.
func Diagnostics() string {
	diagLog.Lock()
	defer diagLog.Unlock()
	return diagLog.buf.String()
}
