package coordinator

import (
	"sync"
	"sync/atomic"
)

// pool executes per-job task chains on a bounded set of workers. The
// event loop owns all decisions and ledger mutations and stays
// single-threaded, and plans there; what fans out here is each job's
// state-management work — deploy, the State Transformer, checkpointing
// and final verification. Tasks for the same job run strictly in
// submission order (a job's reconfigurations are causally dependent);
// tasks for different jobs run concurrently, since every job owns its
// own Tensor Stores, checkpoint storage and PTC.
type pool struct {
	sem  chan struct{}
	wg   sync.WaitGroup
	tail map[string]chan struct{} // per live job: done channel of the last submitted task; the loop's alone
	err  atomic.Pointer[error]    // first task error; later tasks are skipped
}

// newPool builds a pool running at most workers tasks at once. workers
// must be >= 2; a serialized runtime (workers == 1) executes inline in
// the event loop and uses no pool at all.
func newPool(workers int) *pool {
	return &pool{
		sem:  make(chan struct{}, workers),
		tail: map[string]chan struct{}{},
	}
}

// submit appends fn to job's task chain. It never blocks: the task
// starts once its predecessor in the chain has finished and a worker
// slot is free. last says fn ends the chain: the job's entry goes with
// it, so a long-running service holds chains of live jobs only. Only
// the event-loop goroutine may call submit.
func (p *pool) submit(job string, last bool, fn func() error) {
	prev := p.tail[job]
	done := make(chan struct{})
	if last {
		delete(p.tail, job)
	} else {
		p.tail[job] = done
	}
	p.wg.Add(1)
	go func() {
		defer close(done)
		defer p.wg.Done()
		if prev != nil {
			<-prev
		}
		if p.firstErr() != nil {
			return // the run is aborting; don't touch more state
		}
		p.sem <- struct{}{}
		err := fn()
		<-p.sem
		if err != nil {
			p.err.CompareAndSwap(nil, &err)
		}
	}()
}

// drainAll blocks until every chain is idle and returns the first task
// error, if any. Only the event-loop goroutine may call it.
func (p *pool) drainAll() error {
	p.wg.Wait()
	return p.firstErr()
}

func (p *pool) firstErr() error {
	if err := p.err.Load(); err != nil {
		return *err
	}
	return nil
}
