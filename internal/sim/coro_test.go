package sim

import (
	"fmt"
	"sync"
	"testing"
)

// A process body that panics after parking must re-raise the same value
// out of Engine.Run on the caller's goroutine (recover below would miss
// a panic raised on any other goroutine, and the binary would die).
func TestProcessPanicPropagatesToRun(t *testing.T) {
	type payload struct{ code int }
	drainCoroPool()
	e := NewEngine()
	e.Go("boom", func(p *Proc) {
		p.Delay(5)
		panic(payload{code: 7})
	})
	func() {
		defer func() {
			r := recover()
			if v, ok := r.(payload); !ok || v.code != 7 {
				t.Fatalf("Run re-raised %#v, want payload{7}", r)
			}
		}()
		_ = e.Run()
		t.Fatal("Run returned instead of panicking")
	}()
	if e.Now() != 5 {
		t.Fatalf("panic surfaced at cycle %d, want 5", e.Now())
	}
	// The panicked coroutine is dead and must not be pooled; the kernel
	// keeps working for fresh engines.
	coroPool.mu.Lock()
	idle := len(coroPool.free)
	coroPool.mu.Unlock()
	if idle != 0 {
		t.Fatalf("pool holds %d coroutines after a panicking body, want 0", idle)
	}
	fresh := NewEngine()
	var end Cycles
	fresh.Go("after", func(p *Proc) { p.Delay(3); end = p.Now() })
	if err := fresh.Run(); err != nil || end != 3 {
		t.Fatalf("engine after a panic: end=%d err=%v", end, err)
	}
}

// A body that panics before its first park (on the coroutine's very
// first resume) surfaces the same way.
func TestProcessPanicBeforeFirstPark(t *testing.T) {
	e := NewEngine()
	e.Go("boom", func(p *Proc) { panic("early") })
	defer func() {
		if r := recover(); r != "early" {
			t.Fatalf("Run re-raised %#v, want \"early\"", r)
		}
	}()
	_ = e.Run()
	t.Fatal("Run returned instead of panicking")
}

// coroTrace runs a small mixed simulation — timer-parked workers, a
// semaphore ping-pong pair and a waitgroup join — and returns its event
// trace. The shape depends on seed so concurrent engines differ.
func coroTrace(seed int) []string {
	e := NewEngine()
	var trace []string
	log := func(p *Proc, what string) {
		trace = append(trace, fmt.Sprintf("%d %s %s", p.Now(), p.Name(), what))
	}
	wg := NewWaitGroup(e)
	for w := 0; w < 4; w++ {
		d := Cycles(1 + (seed+w)%5)
		wg.Add(1)
		e.Go(fmt.Sprintf("w%d", w), func(p *Proc) {
			for i := 0; i < 6; i++ {
				p.Delay(d)
				log(p, "tick")
			}
			wg.Done()
		})
	}
	ping := NewSemaphore(e, "ping", 0)
	pong := NewSemaphore(e, "pong", 0)
	rounds := 10 + seed%7
	e.Go("echo", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			ping.Acquire(p)
			log(p, "pong")
			pong.Release()
		}
	})
	e.Go("serve", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Delay(Cycles(1 + i%3))
			ping.Release()
			pong.Acquire(p)
			log(p, "ping")
		}
	})
	e.Go("join", func(p *Proc) {
		wg.Wait(p)
		log(p, "joined")
	})
	if err := e.Run(); err != nil {
		trace = append(trace, "error: "+err.Error())
	}
	return trace
}

// Several goroutines run engines at once over the shared coroutine pool,
// so pooled coroutines are created on one goroutine and resumed from
// others. Every engine's trace must equal its sequential reference. Run
// under -race to check the handoff's happens-before edges.
func TestCoroutinePoolAcrossGoroutines(t *testing.T) {
	const seeds, goroutines, rounds = 6, 4, 25
	want := make([][]string, seeds)
	for s := range want {
		want[s] = coroTrace(s)
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := (g + r) % seeds
				got := coroTrace(s)
				if fmt.Sprint(got) != fmt.Sprint(want[s]) {
					errs <- fmt.Sprintf("goroutine %d round %d seed %d:\n got %v\nwant %v", g, r, s, got, want[s])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
