package worker

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"testing"
	"time"

	"podnas/internal/arch"
)

// Peers the attachment test attaches to, on either transport.
const (
	peerBeating = iota // a real serve loop, heartbeat every 50ms
	peerSilent         // a real serve loop that never beats after ready
	peerForeign        // scripted: ready, result 1 under a foreign lease, result 2
)

// noEval backs the agents of this test; no evaluation is ever dispatched.
type noEval struct{}

func (noEval) Evaluate(arch.Arch, uint64) (float64, error) { return 0, nil }

// attachPipe re-execs the test binary as a helper worker (see TestMain in
// worker_test.go) and attaches to it over stdin/stdout.
func attachPipe(t *testing.T, peer int) *attachment {
	t.Helper()
	env := []string{"PODNAS_WORKER_HELPER=1"}
	switch peer {
	case peerSilent:
		env = append(env, "HELPER_NOBEAT=1")
	case peerForeign:
		env = append(env, "HELPER_FOREIGN_LEASE=1")
	}
	tr := &PipeTransport{Command: func(int, int) *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), env...)
		return cmd
	}}
	return mustAttach(t, tr)
}

// attachTCP dials a loopback agent: ServeListener for the real peers, a
// hand-rolled handshake plus the foreign-lease script otherwise.
func attachTCP(t *testing.T, peer int) *attachment {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	t.Cleanup(func() {
		cancel()
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		if peer != peerForeign {
			hb := 50 * time.Millisecond
			if peer == peerSilent {
				hb = time.Hour
			}
			if err := ServeListener(ctx, ln, noEval{}, AgentOptions{Heartbeat: hb}); err != nil {
				t.Errorf("agent: %v", err)
			}
			return
		}
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		dec, enc := json.NewDecoder(c), json.NewEncoder(c)
		var hello Message
		if err := dec.Decode(&hello); err != nil {
			t.Errorf("fake agent: reading hello: %v", err)
			return
		}
		own := Message{Lease: hello.Lease, Epoch: hello.Epoch}
		welcome := own
		welcome.Type, welcome.Schema, welcome.Ident = MsgWelcome, ProtoSchema, "fake/1"
		enc.Encode(welcome)
		ForeignLeaseScript(enc, own)
		<-ctx.Done()
	}()
	return mustAttach(t, &DialTransport{Addrs: []string{ln.Addr().String()}, Seed: 1})
}

// ForeignLeaseScript is the peerForeign wire traffic: every frame carries
// own's lease and epoch except result 1, which carries another lease.
// Exported for the helper process in worker_test.go.
func ForeignLeaseScript(enc *json.Encoder, own Message) {
	ready, zombie, live := own, own, own
	ready.Type = MsgReady
	zombie.Type, zombie.ID, zombie.Lease = MsgResult, 1, own.Lease+7
	live.Type, live.ID = MsgResult, 2
	enc.Encode(ready)
	enc.Encode(zombie)
	enc.Encode(live)
}

func mustAttach(t *testing.T, tr Transport) *attachment {
	t.Helper()
	a, started, err := tr.attach(0, 0, nil)
	if err != nil || !started {
		t.Fatalf("%s attach: started=%v err=%v", tr.Kind(), started, err)
	}
	t.Cleanup(a.EnsureDead)
	return a
}

// recvFrame returns the next inbound frame, or ok=false once msgs closed.
func recvFrame(t *testing.T, a *attachment) (Message, bool) {
	t.Helper()
	select {
	case m, ok := <-a.msgs:
		return m, ok
	case <-time.After(20 * time.Second):
		t.Fatal("no frame and no close on msgs within 20s")
		return Message{}, false
	}
}

func wantFrame(t *testing.T, a *attachment, typ string, id uint64) {
	t.Helper()
	if m, ok := recvFrame(t, a); !ok || m.Type != typ || m.ID != id {
		t.Fatalf("got frame %+v (open=%v), want %s id %d", m, ok, typ, id)
	}
}

// TestAttachment is the contract the supervision loop relies on, run as one
// body over both transports: what differs between them is only how the
// attachment was made and whether it carries a lease fence.
func TestAttachment(t *testing.T) {
	for _, tr := range []struct {
		name   string
		attach func(*testing.T, int) *attachment
		remote bool
	}{
		{"pipe", attachPipe, false},
		{"tcp", attachTCP, true},
	} {
		t.Run(tr.name, func(t *testing.T) {
			// A frame arrives on msgs and counts as proof of life; Kill closes
			// msgs and leaves a terminal error behind.
			a := tr.attach(t, peerBeating)
			wantFrame(t, a, MsgReady, 0)
			if a.id.Remote != tr.remote || (a.id.PID != 0) == tr.remote || (a.id.Lease != 0) != tr.remote {
				t.Fatalf("identity %+v on a remote=%v transport", a.id, tr.remote)
			}
			if a.Stale(time.Hour) {
				t.Fatal("stale right after a frame")
			}
			a.Kill()
			for open := true; open; {
				_, open = recvFrame(t, a)
			}
			if err := a.WaitResult(); err == nil {
				t.Fatal("WaitResult is nil after Kill")
			}

			// A peer that is attached but silent goes stale.
			a = tr.attach(t, peerSilent)
			wantFrame(t, a, MsgReady, 0)
			for deadline := time.Now().Add(10 * time.Second); !a.Stale(30 * time.Millisecond); {
				if time.Now().After(deadline) {
					t.Fatal("silent peer never went stale")
				}
				time.Sleep(5 * time.Millisecond)
			}

			// Shutdown of a cooperative peer returns, reaped, without waiting
			// out its 2s escalation to Kill.
			a = tr.attach(t, peerBeating)
			wantFrame(t, a, MsgReady, 0)
			t0 := time.Now()
			a.Shutdown()
			if d := time.Since(t0); d >= 2*time.Second {
				t.Fatalf("Shutdown took %v: the peer had to be killed", d)
			}
			select {
			case <-a.done:
			default:
				t.Fatal("Shutdown returned before the attachment was reaped")
			}

			// A frame under a foreign lease is dropped and counted by the
			// fence of a leased attachment. A pipe has no lease and no fence:
			// the channel is private, nothing is ever dropped.
			a = tr.attach(t, peerForeign)
			wantFrame(t, a, MsgReady, 0)
			var fenced int64
			if tr.remote {
				fenced = 1
			} else {
				wantFrame(t, a, MsgResult, 1)
			}
			wantFrame(t, a, MsgResult, 2)
			if got := a.fenced.Load(); got != fenced {
				t.Fatalf("fenced %d frames, want %d", got, fenced)
			}
		})
	}
}
