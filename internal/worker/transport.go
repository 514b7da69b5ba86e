package worker

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"
)

// SlotIdentity describes what currently backs one pool slot: a subprocess
// spawned over pipes, or a leased network connection to a remote agent.
type SlotIdentity struct {
	// Remote distinguishes network-attached workers from local subprocesses.
	Remote bool
	// PID is the subprocess id (local slots only).
	PID int
	// Addr, Lease, and Epoch identify the connection (remote slots only):
	// the agent address, the fencing lease the driver minted for this
	// attachment, and the slot's reconnect epoch.
	Addr  string
	Lease uint64
	Epoch int
	// Name is the agent's self-reported identity from the welcome frame.
	Name string
}

// String renders the stable identity form used in stats, events, and tests:
// "local:<pid>" or "remote:<addr>#<lease>".
func (id SlotIdentity) String() string {
	if id.Remote {
		return fmt.Sprintf("remote:%s#%d", id.Addr, id.Lease)
	}
	return fmt.Sprintf("local:%d", id.PID)
}

// attachment is one live worker attachment being driven by a slot's
// supervision loop. It is the only such type: a transport fills in what
// genuinely differs between a subprocess over pipes and an agent over TCP —
// the byte stream, how to kill it, how to reap it, its identity, and the
// lease fence — and everything else (the frame pump, proof of life, kill /
// shutdown escalation) is written here once, so heartbeat liveness, crash
// detection, restart budgets, speculation, and CrashLimit apply identically
// to both.
type attachment struct {
	// id.Lease, when nonzero, fences the attachment: inbound frames carrying
	// any other lease are dropped and counted, never delivered. A pipe is
	// private to the supervisor that spawned the process and carries none.
	id SlotIdentity
	// traces reports whether the peer understands span propagation: a remote
	// agent must have advertised the trace capability in its welcome; a pipe
	// subprocess runs this same binary and self-gates on the eval frame's
	// Trace field, so it always qualifies.
	traces bool
	fw     *frameWriter
	// hangup closes the stream toward the worker so a pipe worker also sees
	// EOF on shutdown; nil for a network peer, whose only close is kill.
	hangup func() error
	// kill force-terminates: SIGKILL for a subprocess, connection close for
	// a network peer (the agent process survives; only this lease dies).
	kill func()
	// reap turns the pump's terminal read error into the attachment's
	// terminal error, waiting for a subprocess to exit first.
	reap func(readErr error) error

	msgs  chan Message  // inbound frames; closed when the peer is gone
	dying chan struct{} // closed by Kill: the consumer may have left
	done  chan struct{} // closed once the attachment is fully reaped

	lastBeat atomic.Int64 // unix nanos of the last valid frame
	fenced   atomic.Int64 // frames dropped for carrying a foreign lease
	killOnce sync.Once
	waitErr  error // set by the pump before done closes
}

// start launches the frame pump over r (already past any handshake) and
// returns the attachment ready for use.
func (a *attachment) start(r *frameReader) *attachment {
	// 64 frames of slack, so a burst of span frames ahead of a result does
	// not run the pump in lockstep with the supervision loop recording them.
	a.msgs = make(chan Message, 64)
	a.dying, a.done = make(chan struct{}), make(chan struct{})
	a.lastBeat.Store(time.Now().UnixNano())
	go func() {
		var readErr error
		for {
			m, err := r.next()
			if err != nil {
				readErr = err
				break
			}
			if a.id.Lease != 0 && m.Lease != a.id.Lease {
				// Fencing: a frame from some other lease (a zombie serve loop,
				// a confused agent) is not proof of life and must never reach
				// the supervision loop as a deliverable result.
				a.fenced.Add(1)
				continue
			}
			a.lastBeat.Store(time.Now().UnixNano())
			select {
			case a.msgs <- m:
			case <-a.dying:
				// Consumer gone; keep draining so the stream reaches EOF.
			}
		}
		close(a.msgs)
		a.waitErr = a.reap(readErr)
		close(a.done)
	}()
	return a
}

// Send writes one frame; an error means the peer is lost.
func (a *attachment) Send(m Message) error { return a.fw.send(m) }

// Stale reports no proof of life (no valid frame) within timeout.
func (a *attachment) Stale(timeout time.Duration) bool {
	return time.Since(time.Unix(0, a.lastBeat.Load())) > timeout
}

// Kill force-terminates the attachment and tells the pump its consumer may
// be gone.
func (a *attachment) Kill() {
	a.killOnce.Do(func() { close(a.dying) })
	a.kill()
}

// EnsureDead kills and waits until the attachment is fully reaped.
func (a *attachment) EnsureDead() {
	a.Kill()
	<-a.done
}

// Shutdown asks the worker to finish cleanly (a subprocess exits; an agent
// ends its serve loop for this lease and keeps listening), escalating to
// Kill after two seconds.
func (a *attachment) Shutdown() {
	_ = a.Send(Message{Type: MsgShutdown})
	if a.hangup != nil {
		_ = a.hangup()
	}
	select {
	case <-a.done:
	case <-time.After(2 * time.Second):
	}
	a.EnsureDead()
}

// WaitResult reports why the attachment ended (only meaningful after msgs
// closed).
func (a *attachment) WaitResult() error {
	<-a.done
	return a.waitErr
}

// Transport establishes worker attachments for pool slots. attach blocks
// until the worker is attached (process started and pumping, or connection
// handshaken) but not until it is ready — the pool waits for the ready
// frame itself, under StartTimeout, for both transports. started reports
// whether a process/connection ever came up: false means the endpoint is
// entirely unavailable, the pool's fast-degradation signal. cancel aborts
// an attempt when the pool closes. The two implementations are
// PipeTransport and DialTransport.
type Transport interface {
	attach(workerID, incarnation int, cancel <-chan struct{}) (a *attachment, started bool, err error)
	// Kind is a short label for logs: "pipe" or "tcp".
	Kind() string
}

// PipeTransport spawns worker subprocesses and attaches to them over
// stdin/stdout — the original single-machine transport.
type PipeTransport struct {
	// Command builds the exec.Cmd for one worker process. workerID is the
	// stable pool slot; incarnation counts respawns of that slot, so fault
	// seeds can differ across restarts (a deterministic self-kill decision
	// must not recur forever in the replacement process). A nil Stderr is
	// replaced with os.Stderr so worker logs pass through.
	Command func(workerID, incarnation int) *exec.Cmd
}

// Kind implements Transport.
func (t *PipeTransport) Kind() string { return "pipe" }

// attach implements Transport: spawn the subprocess.
func (t *PipeTransport) attach(workerID, incarnation int, cancel <-chan struct{}) (*attachment, bool, error) {
	if t.Command == nil {
		return nil, false, errors.New("worker: PipeTransport needs a Command")
	}
	cmd := t.Command(workerID, incarnation)
	if cmd == nil {
		return nil, false, errors.New("worker: Command returned nil")
	}
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, false, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, false, err
	}
	if err := cmd.Start(); err != nil {
		return nil, false, fmt.Errorf("worker: starting %q: %w", cmd.Path, err)
	}
	a := &attachment{
		id:     SlotIdentity{PID: cmd.Process.Pid},
		traces: true,
		fw:     newFrameWriter(stdin),
		hangup: stdin.Close,
		kill:   func() { _ = cmd.Process.Kill() },
		reap: func(error) error {
			if err := cmd.Wait(); err != nil {
				return err
			}
			return errors.New("clean exit")
		},
	}
	return a.start(newFrameReader(stdout)), true, nil
}

// netWriteTimeout bounds one frame write to a network peer, so a driver
// never wedges on a half-dead connection whose receive window filled up;
// the frames are tiny, so a healthy peer acknowledges far sooner.
const netWriteTimeout = 30 * time.Second

// DialTransport attaches pool slots to remote worker agents over TCP (see
// ServeListener for the agent side). Each slot dials Addrs[slot mod
// len(Addrs)], so a pool spreads its slots round-robin over the fleet. Every
// connection opens with a versioned hello/welcome handshake that fences the
// attachment with a lease (LeaseID of Seed, slot, and the reconnect epoch):
// the agent echoes the lease in every frame, and the driver discards frames
// carrying any other lease, so a zombie worker from a superseded connection
// can never deliver a result. Connection loss is handled by the pool's
// ordinary supervision: seeded-backoff reconnect (a fresh epoch, a fresh
// lease) and re-dispatch of whatever was in flight.
type DialTransport struct {
	// Addrs are the agent addresses ("host:port"); at least one.
	Addrs []string
	// DialTimeout bounds one TCP connect attempt (default 5s).
	DialTimeout time.Duration
	// HandshakeTimeout bounds the hello/welcome exchange (default 10s).
	HandshakeTimeout time.Duration
	// ReadTimeout, when positive, is a per-read deadline on the live
	// connection — a transport-level dead-peer bound underneath the
	// application-level heartbeat liveness check. It must exceed the pool's
	// heartbeat timeout or healthy idle links get cut. 0 disables it.
	ReadTimeout time.Duration
	// Seed derives the deterministic lease IDs.
	Seed uint64
}

func (t *DialTransport) dialTimeout() time.Duration {
	if t.DialTimeout > 0 {
		return t.DialTimeout
	}
	return 5 * time.Second
}

func (t *DialTransport) handshakeTimeout() time.Duration {
	if t.HandshakeTimeout > 0 {
		return t.HandshakeTimeout
	}
	return 10 * time.Second
}

// Kind implements Transport.
func (t *DialTransport) Kind() string { return "tcp" }

// attach implements Transport: dial, handshake, lease.
func (t *DialTransport) attach(workerID, incarnation int, cancel <-chan struct{}) (*attachment, bool, error) {
	if len(t.Addrs) == 0 {
		return nil, false, errors.New("worker: DialTransport has no agent addresses")
	}
	addr := t.Addrs[workerID%len(t.Addrs)]
	ctx, stop := context.WithTimeout(context.Background(), t.dialTimeout())
	defer stop()
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-cancel:
			stop()
		case <-watchDone:
		}
	}()
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		// A refused or timed-out dial means the endpoint is unavailable —
		// started=false, the fast-degradation signal, mirroring a worker
		// binary that cannot even start.
		return nil, false, fmt.Errorf("worker: dial %s: %w", addr, err)
	}
	lease := LeaseID(t.Seed, workerID, incarnation)
	dc := &deadlineConn{c: c}
	fw := newFrameWriter(dc)
	r := newFrameReader(dc)
	_ = c.SetDeadline(time.Now().Add(t.handshakeTimeout()))
	hello := Message{Type: MsgHello, Schema: ProtoSchema, Lease: lease, Epoch: incarnation, Caps: []string{CapEval, CapTrace}}
	if err := fw.send(hello); err != nil {
		_ = c.Close()
		return nil, true, fmt.Errorf("worker: handshake with %s: sending hello: %w", addr, err)
	}
	m, err := r.next()
	if err != nil {
		_ = c.Close()
		return nil, true, fmt.Errorf("worker: handshake with %s: %w", addr, err)
	}
	if err := ValidateWelcome(m, lease, incarnation); err != nil {
		_ = c.Close()
		return nil, true, fmt.Errorf("%w (agent %s)", err, addr)
	}
	_ = c.SetDeadline(time.Time{})
	dc.read, dc.write = t.ReadTimeout, netWriteTimeout
	a := &attachment{
		id: SlotIdentity{Remote: true, Addr: addr, Lease: lease, Epoch: incarnation, Name: m.Ident},
		// An agent predating capability echo reports none and simply gets
		// no trace fields.
		traces: HasCap(m.Caps, CapTrace),
		fw:     fw,
		kill:   func() { _ = c.Close() },
		reap: func(readErr error) error {
			if errors.Is(readErr, io.EOF) {
				return errors.New("connection closed")
			}
			return readErr
		},
	}
	return a.start(r), true, nil
}

// deadlineConn arms a fresh deadline before every Read and Write, turning
// net.Conn's absolute deadlines into the per-read timeout DialTransport
// exposes and the per-frame netWriteTimeout (one frame is one Write). Both
// are zero — off — during the handshake, which runs under one absolute
// deadline, and are written once, before the pump goroutine starts.
type deadlineConn struct {
	c           net.Conn
	read, write time.Duration
}

func (d *deadlineConn) Read(p []byte) (int, error) {
	if d.read > 0 {
		_ = d.c.SetReadDeadline(time.Now().Add(d.read))
	}
	return d.c.Read(p)
}

func (d *deadlineConn) Write(p []byte) (int, error) {
	if d.write > 0 {
		_ = d.c.SetWriteDeadline(time.Now().Add(d.write))
	}
	return d.c.Write(p)
}
