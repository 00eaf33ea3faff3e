package par

import (
	"fmt"
	"sync"
)

// Stream runs n tasks on a bounded worker pool and delivers their
// results to emit strictly in index order, holding at most 2·workers
// results in memory at any moment. It is the streaming counterpart of
// Map for outputs too large to materialize: a 10M-element run keeps a
// fixed-size reorder window alive instead of an n-element slice. A
// caller whose tasks are cheap should make each task a block of
// items, so the claim and handoff cost is paid once per block.
//
// prepare(i) runs serially, in strict index order, at claim time — one
// call at a time under the pool's claim lock. It exists so a caller
// can consume ordered shared state (e.g. split the i-th rng stream off
// a base source) and capture it into the returned task closure; keep
// it cheap, it is on the serial path. The returned task runs
// concurrently on the claiming worker. emit(i, v) runs on the calling
// goroutine, in index order, one call at a time.
//
// Determinism and failure semantics match Map: results are delivered
// in index order regardless of scheduling, a panicking task is
// converted to an error, and the error returned is the one from the
// lowest-numbered failing task (tasks are claimed in index order and
// emitted in index order, so the first failure the emitter meets is
// the minimum failing index). An error returned by emit stops the
// stream the same way. Workers ahead of the emit cursor block once
// they are a full window ahead, so a slow emit applies backpressure
// instead of growing a buffer.
func Stream[T any](workers, n int, prepare func(i int) func() (T, error), emit func(i int, v T) error) error {
	if n < 0 {
		return fmt.Errorf("par: negative task count %d", n)
	}
	if n == 0 {
		return nil
	}
	w := clamp(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			v, err := runTask(prepare, i)
			if err == nil {
				err = emit(i, v)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	// Reorder window: workers may run at most `window` tasks ahead of
	// the emit cursor, so buffered results are bounded by the worker
	// count, not by n.
	window := 2 * w
	type slot struct {
		val   T
		err   error
		ready bool
	}
	slots := make([]slot, window)
	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		claimNext int  // next index to hand to a worker
		emitNext  int  // next index the emitter will deliver
		stopped   bool // set on first error; halts claiming and emitting
	)

	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for !stopped && claimNext < n && claimNext >= emitNext+window {
					cond.Wait()
				}
				if stopped || claimNext >= n {
					mu.Unlock()
					return
				}
				i := claimNext
				claimNext++
				task, err := prepareTask(prepare, i)
				mu.Unlock()
				var v T
				if err == nil {
					v, err = callTask(task, i)
				}
				mu.Lock()
				s := &slots[i%window]
				s.val, s.err, s.ready = v, err, true
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}

	var firstErr error
	mu.Lock()
	for emitNext < n {
		s := &slots[emitNext%window]
		for !s.ready {
			cond.Wait()
		}
		i := emitNext
		v, err := s.val, s.err
		var zero T
		s.val, s.err, s.ready = zero, nil, false
		mu.Unlock()
		if err == nil {
			err = emit(i, v)
		}
		mu.Lock()
		emitNext++
		if err != nil {
			firstErr = err
			stopped = true
			cond.Broadcast()
			break
		}
		cond.Broadcast()
	}
	mu.Unlock()
	wg.Wait()
	return firstErr
}

// runTask executes prepare(i) and its task inline with panic
// containment — the serial path of Stream.
func runTask[T any](prepare func(i int) func() (T, error), i int) (T, error) {
	task, err := prepareTask(prepare, i)
	if err != nil {
		var zero T
		return zero, err
	}
	return callTask(task, i)
}

// prepareTask invokes prepare with the same panic containment as
// tasks, attributing a failure to the index being claimed.
func prepareTask[T any](prepare func(i int) func() (T, error), i int) (task func() (T, error), err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("par: task %d: prepare panicked: %v", i, r)
		}
	}()
	return prepare(i), nil
}

// callTask invokes a streamed task, converting a panic into an error
// so one bad task cannot tear down the whole process from a worker
// goroutine.
func callTask[T any](task func() (T, error), i int) (result T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("par: task %d panicked: %v", i, r)
		}
	}()
	return task()
}
