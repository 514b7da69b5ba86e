// Package worker provides process-isolated architecture evaluation: a
// supervisor-side Pool that implements search.Evaluator by dispatching
// evaluations to disposable worker subprocesses, and the worker-side Serve
// loop those subprocesses run.
//
// This is the in-repo analogue of the paper's Balsam deployment on Theta
// (Maulik et al., SC 2020, §IV-A): every evaluation runs as an independent
// job, so a node that OOMs, hangs, or is SIGKILLed mid-training costs one
// evaluation — which the supervisor re-dispatches — never the search. The
// supervisor restarts crashed workers with seeded exponential backoff under
// a restart budget, detects silent deaths via heartbeats, speculatively
// re-executes stragglers (first result wins, the loser is cancelled), and
// degrades gracefully to an in-process evaluator when subprocesses cannot
// be spawned at all.
//
// The supervisor knows one kind of worker, the attachment (transport.go): a
// Transport only spawns (PipeTransport) or dials and handshakes
// (DialTransport) and fills in the byte stream, how to kill and reap it,
// its SlotIdentity, and an optional lease fence. The frame pump, proof of
// life and kill/shutdown escalation are the attachment's, and one loop per
// ready attachment (Pool.serve) is either idle, taking the next job off the
// queue, or busy, waiting for that job's result frame.
//
// The wire protocol is line-delimited JSON over the worker's stdin/stdout.
// Worker logs go to stderr, which the supervisor passes through. Exactly
// one evaluation is in flight per worker at a time:
//
//	supervisor → worker:  {"type":"eval","id":7,"arch":[3,1,...],"seed":42}
//	                      {"type":"cancel","id":7}
//	                      {"type":"shutdown"}
//	worker → supervisor:  {"type":"ready"}
//	                      {"type":"heartbeat"}          (periodic, even mid-training)
//	                      {"type":"result","id":7,"reward":0.93}
//
// The same frames also run over TCP between a driver (DialTransport) and a
// dialable worker agent (ServeListener, `nasrun -worker -listen`). A network
// connection opens with a versioned handshake that fences the slot with a
// lease:
//
//	driver → agent:  {"type":"hello","schema":1,"lease":771...,"epoch":2,"caps":["eval"]}
//	agent → driver:  {"type":"welcome","schema":1,"lease":771...,"epoch":2,"ident":"host/4242"}
//
// after which the agent stamps the lease and epoch into every frame it
// sends. The driver mints a fresh lease per (slot, reconnect-epoch) and
// drops frames carrying any other lease, so a zombie agent still grinding a
// superseded evaluation can never deliver its result (see DESIGN.md §9).
//
// Rewards cross the boundary as JSON float64, which round-trips exactly, so
// a single-worker isolated run reproduces the in-process search history
// bit for bit.
package worker

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"podnas/internal/arch"
)

// Message type tags of the wire protocol.
const (
	// Supervisor → worker.
	MsgEval     = "eval"
	MsgCancel   = "cancel"
	MsgShutdown = "shutdown"
	// Worker → supervisor.
	MsgReady     = "ready"
	MsgHeartbeat = "heartbeat"
	MsgResult    = "result"
	// MsgSpan ships one completed trace span from the worker back to the
	// driver (trace capability only): the worker's train/epoch spans arrive
	// before the result frame and the driver re-records them, stitching the
	// worker's subtree into the driver-side trace. Old drivers ignore the
	// unknown frame type; old agents never send it.
	MsgSpan = "span"
	// Network handshake (driver → agent, then agent → driver). Pipe-spawned
	// subprocess workers skip the handshake entirely: their channel is
	// private to the supervisor that spawned them, so the pipe wire format
	// stays byte-identical to earlier releases.
	MsgHello   = "hello"
	MsgWelcome = "welcome"
)

// ProtoSchema is the wire-protocol generation carried in the handshake. A
// driver announces the version it speaks in its hello; an agent refuses a
// hello from the future (it cannot know what the frames mean) and answers
// with the version it actually speaks, which the driver checks in turn.
// Bump it when an existing frame field changes meaning, not when fields or
// message types are added — unknown JSON fields are ignored by both sides.
const ProtoSchema = 1

// Message is one protocol frame. Unused fields are omitted on the wire.
type Message struct {
	Type string `json:"type"`
	// ID correlates an eval request with its cancel and result frames.
	ID uint64 `json:"id,omitempty"`
	// Arch and Seed define the evaluation (eval frames).
	Arch arch.Arch `json:"arch,omitempty"`
	Seed uint64    `json:"seed,omitempty"`
	// Reward, Err, and Transient carry the outcome (result frames). JSON
	// cannot encode non-finite floats, so workers clamp those to
	// search.DivergedReward before replying, mirroring the checkpoint codec.
	Reward    float64 `json:"reward,omitempty"`
	Err       string  `json:"err,omitempty"`
	Transient bool    `json:"transient,omitempty"`

	// Network-transport fields. Schema is the handshake protocol generation
	// (hello/welcome). Lease and Epoch fence one slot incarnation: the
	// driver mints them per connection, the agent echoes them in every frame
	// it sends, and the driver drops any frame whose lease is not the one it
	// currently holds for that slot — a zombie worker from a stale lease can
	// never deliver a result. Ident names the agent ("host/pid") in the
	// welcome; Caps lists what it can do (currently just "eval").
	Schema int      `json:"schema,omitempty"`
	Lease  uint64   `json:"lease,omitempty"`
	Epoch  int      `json:"epoch,omitempty"`
	Ident  string   `json:"ident,omitempty"`
	Caps   []string `json:"caps,omitempty"`

	// Trace-propagation fields (the "trace" capability; no schema bump —
	// both sides ignore unknown fields). Trace carries an encoded span
	// context ("1-<trace>-<span>", see internal/obs/span): on an eval frame
	// it is the parent context the worker derives its spans under; on a
	// span frame it is the completed span's own identity. Parent, Name,
	// Seconds, and TrainEpoch describe the completed span (span frames
	// only; TrainEpoch has its own field because Epoch already means lease
	// incarnation on this wire).
	Trace      string  `json:"trace,omitempty"`
	Parent     string  `json:"parent,omitempty"`
	Name       string  `json:"name,omitempty"`
	Seconds    float64 `json:"seconds,omitempty"`
	TrainEpoch int     `json:"train_epoch,omitempty"`
}

// Capabilities negotiated in the hello/welcome handshake. Future
// capabilities (weight shipping, island migration) extend this list
// without a schema bump.
const (
	// CapEval is evaluating architectures — the baseline every agent has.
	CapEval = "eval"
	// CapTrace is span-context propagation: a driver that includes it in
	// its hello understands span frames; an agent that echoes it in its
	// welcome Caps will emit them for eval frames carrying a Trace field.
	// Either side missing the capability degrades to no spans, never to a
	// protocol error.
	CapTrace = "trace"
)

// HasCap reports whether a capability list contains name.
func HasCap(caps []string, name string) bool {
	for _, c := range caps {
		if c == name {
			return true
		}
	}
	return false
}

// LeaseID derives the fencing token for one slot incarnation. It is seeded
// (deterministic for tests) and collision-free across the (slot, epoch)
// pairs one pool can mint; zero — the "unleased" value pipe workers carry —
// is never returned.
func LeaseID(seed uint64, slot, epoch int) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	h = (h ^ (uint64(slot) + 1)) * 0x100000001b3
	h ^= h >> 29
	h = (h ^ (uint64(epoch) + 1)) * 0x100000001b3
	h ^= h >> 32
	if h == 0 {
		return 1
	}
	return h
}

// ValidateHello checks a driver's opening frame on the agent side: the right
// type, a schema the agent can speak, and a nonzero lease to echo. The error
// is safe to send back to the driver verbatim.
func ValidateHello(m Message) error {
	if m.Type != MsgHello {
		return fmt.Errorf("worker: handshake: expected %q frame, got %q", MsgHello, m.Type)
	}
	if m.Schema < 1 || m.Schema > ProtoSchema {
		return fmt.Errorf("worker: handshake: driver speaks protocol schema %d, this agent speaks 1..%d", m.Schema, ProtoSchema)
	}
	if m.Lease == 0 {
		return fmt.Errorf("worker: handshake: hello carries no lease")
	}
	return nil
}

// ValidateWelcome checks the agent's handshake reply on the driver side: the
// right type, a schema within what the driver speaks, the exact lease and
// epoch echoed back (proof the agent acknowledged the fence), and a worker
// identity.
func ValidateWelcome(m Message, lease uint64, epoch int) error {
	if m.Type != MsgWelcome {
		if m.Type == MsgHello {
			return fmt.Errorf("worker: handshake: peer sent its own hello; two drivers dialed each other?")
		}
		return fmt.Errorf("worker: handshake: expected %q frame, got %q", MsgWelcome, m.Type)
	}
	if m.Err != "" {
		return fmt.Errorf("worker: handshake: agent refused: %s", m.Err)
	}
	if m.Schema < 1 || m.Schema > ProtoSchema {
		return fmt.Errorf("worker: handshake: agent speaks protocol schema %d, this driver speaks 1..%d", m.Schema, ProtoSchema)
	}
	if m.Lease != lease || m.Epoch != epoch {
		return fmt.Errorf("worker: handshake: agent echoed lease %d epoch %d, want lease %d epoch %d", m.Lease, m.Epoch, lease, epoch)
	}
	if m.Ident == "" {
		return fmt.Errorf("worker: handshake: welcome carries no worker identity")
	}
	return nil
}

// maxFrameBytes bounds one protocol line. Frames are tiny (an architecture
// is ~14 small ints), so 1 MiB is generous headroom, not a real limit.
const maxFrameBytes = 1 << 20

// frameWriter serializes concurrent frame writes (heartbeat goroutine vs.
// evaluation results) onto one stream.
type frameWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{enc: json.NewEncoder(w)}
}

// send writes one frame as a single line. The error matters to supervisors
// (a broken pipe means the peer died) and is advisory to workers.
func (w *frameWriter) send(m Message) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.enc.Encode(m)
}

// frameReader yields frames from a line-delimited JSON stream.
type frameReader struct {
	sc *bufio.Scanner
}

func newFrameReader(r io.Reader) *frameReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxFrameBytes)
	return &frameReader{sc: sc}
}

// next returns the next parseable frame. Unparseable lines (a frame torn by
// a mid-write crash, stray debug output on the wrong stream) are skipped:
// the liveness mechanisms — heartbeats, process exit — decide the peer's
// fate, not a single corrupt line. io.EOF reports a cleanly closed stream.
func (r *frameReader) next() (Message, error) {
	for r.sc.Scan() {
		line := r.sc.Bytes()
		var m Message
		if err := json.Unmarshal(line, &m); err != nil || m.Type == "" {
			continue
		}
		return m, nil
	}
	if err := r.sc.Err(); err != nil {
		return Message{}, fmt.Errorf("worker: protocol stream: %w", err)
	}
	return Message{}, io.EOF
}
