package storage

import "sync"

// Scheduler is the background LSM-maintenance worker pool: a bounded
// set of goroutines draining a queue of flush and merge tasks. One
// scheduler is typically shared by every tree on a node (AsterixDB
// likewise runs a node-wide pool of flush/merge threads), so a node's
// maintenance I/O parallelism is capped independently of how many
// dataset partitions it hosts. Submit never blocks: the queue is
// unbounded, but callers deduplicate per-tree tasks so its depth is
// bounded by the number of open trees.
type Scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []func()
	running int
	closed  bool
	wg      sync.WaitGroup
}

// NewScheduler starts a pool of `workers` maintenance goroutines
// (minimum 1).
func NewScheduler(workers int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	s := &Scheduler{}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		task := s.queue[0]
		s.queue = s.queue[1:]
		s.running++
		s.mu.Unlock()
		task()
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}
}

// Submit enqueues a maintenance task. It reports false (and drops the
// task) if the scheduler is closed; callers must then run or skip the
// work themselves.
func (s *Scheduler) Submit(task func()) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.queue = append(s.queue, task)
	s.cond.Signal()
	return true
}

// Close drains the queue and stops the workers. Trees using this
// scheduler must be closed first.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// SchedulerStats reports the pool's instantaneous load.
type SchedulerStats struct {
	Pending int // tasks queued, not yet started
	Running int // tasks currently executing
}

// Stats returns the scheduler's instantaneous queue depth and running
// task count.
func (s *Scheduler) Stats() SchedulerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SchedulerStats{Pending: len(s.queue), Running: s.running}
}
