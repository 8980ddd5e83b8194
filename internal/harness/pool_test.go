package harness

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunPoolRunsAll(t *testing.T) {
	var ran atomic.Int32
	if err := RunPool(context.Background(), 4, 100, func(ctx context.Context, i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", ran.Load())
	}
}

func TestRunPoolStopsDequeuingAfterError(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int32
	const n = 1000
	err := RunPool(context.Background(), 2, n, func(ctx context.Context, i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The old implementation kept running all n jobs after the first
	// error; the pool must stop starting new ones once it is recorded.
	if s := started.Load(); s > n/2 {
		t.Fatalf("%d of %d tasks still started after the error", s, n)
	}
}

func TestRunPoolParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var started atomic.Int32
	err := RunPool(ctx, 2, 50, func(ctx context.Context, i int) error {
		started.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started.Load() != 0 {
		t.Fatalf("%d tasks started under a cancelled context", started.Load())
	}
}

func TestPoolSubmitAfterClose(t *testing.T) {
	p := NewPool(context.Background(), 1)
	p.Close()
	if p.Submit(func(context.Context) {}) {
		t.Fatal("Submit accepted a task after Close")
	}
	p.Wait()
}

func TestPoolCounters(t *testing.T) {
	p := NewPool(context.Background(), 1)
	release := make(chan struct{})
	running := make(chan struct{})
	p.Submit(func(context.Context) { close(running); <-release })
	p.Submit(func(context.Context) {})
	<-running
	if d := p.QueueDepth(); d != 1 {
		t.Fatalf("queue depth = %d, want 1", d)
	}
	if a := p.Active(); a != 1 {
		t.Fatalf("active = %d, want 1", a)
	}
	close(release)
	p.Close()
	p.Wait()
	if p.QueueDepth() != 0 || p.Active() != 0 {
		t.Fatalf("pool not drained: depth=%d active=%d", p.QueueDepth(), p.Active())
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := DefaultOptions()
	opt.MaxInstrs = 2000
	if _, err := RunContext(ctx, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
