// Package releasefix seeds receive-queue release violations for the
// ownership analyzer: a message polled from a QDMA receive queue is read,
// released twice or retained after Release, at the hardware layer and at
// libelan's — plus the release-when-done shapes it must accept.
package releasefix

import (
	"qsmpi/internal/elan4"
	"qsmpi/internal/libelan"
)

func ReadAfterRelease(q *elan4.RecvQueue) byte {
	m, _ := q.Poll()
	q.Release(m)
	return m.Data[0] // want `used m after Release`
}

func HandleAfterRelease(q *libelan.Queue, handle func(elan4.QueuedMsg)) {
	m, _ := q.Take()
	q.Release(m)
	handle(m) // want `used m after Release`
}

func DoubleRelease(q *libelan.Queue) {
	m, _ := q.Take()
	q.Release(m)
	q.Release(m) // want `double Release of m`
}

func RetainAfterRelease(q *elan4.RecvQueue, sink *[][]byte) {
	m, _ := q.Poll()
	q.Release(m)
	*sink = append(*sink, m.Data) // want `retained m after Release`
}

func AliasAfterRelease(q *elan4.RecvQueue) byte {
	m, _ := q.Poll()
	n := m
	q.Release(m)
	return n.Data[0] // want `used n after Release`
}

// ReleaseWhenDoneOK: the consumer's shape — handle, then release.
func ReleaseWhenDoneOK(q *libelan.Queue, handle func(elan4.QueuedMsg)) {
	m, _ := q.Take()
	handle(m)
	q.Release(m)
}

// CopyThenReleaseOK: the bytes that outlive the release are a copy.
func CopyThenReleaseOK(q *elan4.RecvQueue, out []byte) int {
	m, _ := q.Poll()
	n := copy(out, m.Data)
	q.Release(m)
	return n
}

// ReleaseOnOneArmOK: a release on one arm does not outlive the join.
func ReleaseOnOneArmOK(q *elan4.RecvQueue, park bool, parked *[]elan4.QueuedMsg) {
	m, _ := q.Poll()
	if !park {
		q.Release(m)
		return
	}
	*parked = append(*parked, m)
}
