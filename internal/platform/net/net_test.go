package net

import (
	"fmt"
	gonet "net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsmtx/internal/platform"
)

// twoMeshes builds an in-process pair of meshes connected over loopback
// TCP: daemon 0 listens, daemon 1 dials (the i > j dial rule).
func twoMeshes(t *testing.T) (*Mesh, *Mesh) {
	t.Helper()
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr().String(), ""}
	m0 := NewMesh(MeshConfig{JobID: 42, Self: 0, Addrs: addrs, Logf: t.Logf})
	m0.ServeListener(ln)
	m1 := NewMesh(MeshConfig{JobID: 42, Self: 1, Addrs: addrs, Logf: t.Logf})
	t.Cleanup(func() {
		m1.Close()
		m0.Close()
	})
	return m0, m1
}

func TestCrossDaemonRoundTrip(t *testing.T) {
	m0, m1 := twoMeshes(t)
	p0, err := m0.Platform(0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := m1.Platform(0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p0.LocalRank(0) || p0.LocalRank(1) || !p1.LocalRank(1) {
		t.Fatal("rank ownership split is wrong")
	}
	if p0.Name() != "net" {
		t.Fatalf("Name = %q", p0.Name())
	}

	var got uint64
	p1.Spawn("echo", func(pr platform.Proc) {
		ep := p1.Endpoint(1)
		msg := ep.Recv(pr, 0, 7)
		ep.Send(0, 8, msg.Payload.(uint64)+1, 16)
	})
	p0.Spawn("ping", func(pr platform.Proc) {
		ep := p0.Endpoint(0)
		ep.Send(1, 7, uint64(99), 16)
		got = p0.Endpoint(0).Recv(pr, 1, 8).Payload.(uint64)
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); p1.Run(0) }()
	if err := p0.Run(0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got != 100 {
		t.Fatalf("round trip payload = %d, want 100", got)
	}
}

// TestCrossDaemonOrderAndVolume pushes well past the ack threshold in both
// directions and checks per-link FIFO plus every built-in payload kind.
func TestCrossDaemonOrderAndVolume(t *testing.T) {
	const n = 1000
	m0, m1 := twoMeshes(t)
	p0, err := m0.Platform(0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := m1.Platform(0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}

	var recvErr error
	p1.Spawn("sink", func(pr platform.Proc) {
		ep := p1.Endpoint(1)
		for i := 0; i < n; i++ {
			msg := ep.Recv(pr, 0, 5)
			switch want := i; i % 3 {
			case 0:
				if v, ok := msg.Payload.(uint64); !ok || v != uint64(want) {
					recvErr = fmt.Errorf("msg %d: payload %v", i, msg.Payload)
					return
				}
			case 1:
				if b, ok := msg.Payload.([]byte); !ok || len(b) != 1 || b[0] != byte(want) {
					recvErr = fmt.Errorf("msg %d: payload %v", i, msg.Payload)
					return
				}
			case 2:
				if msg.Payload != nil {
					recvErr = fmt.Errorf("msg %d: payload %v, want nil", i, msg.Payload)
					return
				}
			}
		}
		ep.Send(0, 6, uint64(n), 8)
	})
	p0.Spawn("source", func(pr platform.Proc) {
		ep := p0.Endpoint(0)
		for i := 0; i < n; i++ {
			switch i % 3 {
			case 0:
				ep.Send(1, 5, uint64(i), 8)
			case 1:
				ep.Send(1, 5, []byte{byte(i)}, 9)
			case 2:
				ep.Send(1, 5, nil, 8)
			}
		}
		if v := ep.Recv(pr, 1, 6).Payload.(uint64); v != n {
			recvErr = fmt.Errorf("final ack = %d", v)
		}
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); p1.Run(0) }()
	if err := p0.Run(0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if recvErr != nil {
		t.Fatal(recvErr)
	}
}

// TestGenerationBuffering starts generation 1 on daemon 0 and sends before
// daemon 1 has bound generation 1; the frames must buffer in the mesh and
// drain when the platform binds.
func TestGenerationBuffering(t *testing.T) {
	m0, m1 := twoMeshes(t)
	// Generation 0 on both sides completes an invocation.
	p0, err := m0.Platform(0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := m1.Platform(0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1.Spawn("g0", func(pr platform.Proc) { p1.Endpoint(1).Recv(pr, 0, 1) })
	p0.Spawn("g0", func(pr platform.Proc) { p0.Endpoint(0).Send(1, 1, nil, 8) })
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); p1.Run(0) }()
	if err := p0.Run(0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// Daemon 0 moves to generation 1 and sends immediately; daemon 1 binds
	// late.
	q0, err := m0.Platform(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	q0.Spawn("g1", func(pr platform.Proc) { q0.Endpoint(0).Send(1, 2, uint64(7), 8) })
	go q0.Run(0)
	time.Sleep(50 * time.Millisecond)

	q1, err := m1.Platform(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	q1.Spawn("g1", func(pr platform.Proc) {
		got = q1.Endpoint(1).Recv(pr, 0, 2).Payload.(uint64)
	})
	if err := q1.Run(0); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("buffered generation payload = %d, want 7", got)
	}
}

// TestReconnectReplay kills the established connection mid-stream; the
// dialer must redial and replay unacked frames, and the receiver must see
// an uninterrupted, duplicate-free sequence.
func TestReconnectReplay(t *testing.T) {
	m0, m1 := twoMeshes(t)
	p0, err := m0.Platform(0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := m1.Platform(0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}

	const n = 200
	var recvErr error
	p0.Spawn("sink", func(pr platform.Proc) {
		ep := p0.Endpoint(0)
		for i := 0; i < n; i++ {
			v := ep.Recv(pr, 1, 3).Payload.(uint64)
			if v != uint64(i) {
				recvErr = fmt.Errorf("msg %d: got %d", i, v)
				return
			}
		}
	})
	p1.Spawn("source", func(pr platform.Proc) {
		ep := p1.Endpoint(1)
		for i := 0; i < n; i++ {
			ep.Send(0, 3, uint64(i), 8)
			if i == n/2 {
				// Sever the live connection from the sender side; the
				// writer must fail over, redial, and replay.
				if s := currentSession(m1.peers[0]); s != nil {
					s.conn.Close()
				}
			}
		}
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); p1.Run(0) }()
	if err := p0.Run(0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if recvErr != nil {
		t.Fatal(recvErr)
	}
}

// TestCloseFlushesQueuedFrames queues a burst of messages and closes the
// sending mesh at once, as the commit daemon does after its final done
// broadcast: Close must ship every queued frame before Goodbye, so the peer
// receives all of them instead of parking forever on the missing tail.
func TestCloseFlushesQueuedFrames(t *testing.T) {
	const n = 4000 // below outDepth: every send queues without blocking
	m0, m1 := twoMeshes(t)
	p0, err := m0.Platform(0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := m1.Platform(0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	p0.Spawn("sink", func(pr platform.Proc) {
		ep := p0.Endpoint(0)
		ep.Send(1, 1, nil, 8) // the link is up once the source hears this
		for got.Load() < n {
			ep.Recv(pr, 1, 2)
			got.Add(1)
		}
	})
	p1.Spawn("source", func(pr platform.Proc) {
		ep := p1.Endpoint(1)
		ep.Recv(pr, 0, 1)
		for i := 0; i < n; i++ {
			ep.Send(0, 2, uint64(i), 8)
		}
	})
	if err := p1.Run(0); err != nil {
		t.Fatal(err)
	}
	m1.Close()
	done := make(chan error, 1)
	go func() { done <- p0.Run(0) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		p0.Abort(fmt.Errorf("test timed out"))
		<-done
		t.Fatalf("peer received %d of %d messages sent before Close", got.Load(), n)
	}
}

// currentSession exposes the live connection for fault injection.
func currentSession(p *peer) *session { return p.cur.Load() }

func TestJobIDMismatchRejected(t *testing.T) {
	old := dialGiveUp
	dialGiveUp = 500 * time.Millisecond
	defer func() { dialGiveUp = old }()
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr().String(), ""}
	m0 := NewMesh(MeshConfig{JobID: 1, Self: 0, Addrs: addrs})
	m0.ServeListener(ln)
	defer m0.Close()
	// A dialer from another job must not attach; its dial loop eventually
	// aborts its own mesh.
	m1 := NewMesh(MeshConfig{JobID: 2, Self: 1, Addrs: addrs})
	defer m1.Close()
	deadline := time.Now().Add(dialGiveUp + 10*time.Second)
	for m1.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("mismatched dialer never aborted")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
