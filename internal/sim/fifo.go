package sim

// FIFO is a first-in first-out queue that reuses its backing array. Pop
// advances a head index instead of reslicing from the front, a queue that
// drains starts again at the front of the same array, and the live tail
// moves down only once the dead prefix is at least as long as it — so a
// queue whose length stays bounded stops allocating, and each element is
// moved O(1) times on average.
type FIFO[T any] struct {
	buf  []T
	head int // buf[:head] is popped
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the head. The queue must not be empty.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference for the collector
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
