package netq

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/workq"
)

// ServerOptions configures a coordinator-side queue.
type ServerOptions struct {
	// Lease is how long a claimed task may go without a heartbeat before
	// it re-queues for another worker. It must comfortably exceed one
	// heartbeat interval (workq.HeartbeatEvery); 0 means 2 minutes, long
	// enough that only a dead worker's tasks ever re-queue.
	Lease time.Duration

	// IdleTimeout bounds how long a connected worker may stay silent
	// (a live worker polls or heartbeats far more often). On expiry the
	// connection is dropped and its leases re-queue, so a partitioned
	// worker cannot hold the coordinator's worker count up forever.
	// 0 means max(2×Lease, 30s).
	IdleTimeout time.Duration

	// CacheDir, when non-empty, enables the shared-cache-dir probe: a
	// random session token is written there and offered to every worker
	// in the welcome message. Workers that read it back skip artifact
	// streaming.
	CacheDir string

	// StoreArtifact persists one streamed, already-framed artifact under
	// its content key (the caller verifies/decodes; netq does not know
	// the codec). nil refuses streamed results — completions then carry
	// keys only, which is correct when every worker shares the cache.
	StoreArtifact func(key string, data []byte) error

	// TaskKey derives, coordinator-side, the content key a streamed
	// artifact for task t must be stored under. The listener is
	// unauthenticated, so the key a worker reports on the wire is
	// untrusted input: when TaskKey is set it is ignored entirely for
	// storage — a hostile or confused worker can neither traverse paths
	// (StoreArtifact implementations join the key into a directory) nor
	// poison a different task's cache entry. nil falls back to the wire
	// key, which is then required to look like a bare content hash
	// (lowercase hex) before it gets anywhere near a filename.
	TaskKey func(t workq.Task) (string, error)
}

// Progress is a point-in-time snapshot of the queue's state.
type Progress struct {
	Total, Done, Failed, Leased, Pending int
	// Workers is how many workers are connected right now; WorkersEver
	// counts distinct connections that completed the handshake.
	Workers, WorkersEver int
	// Requeues counts tasks returned to the queue by lease expiry or
	// connection loss; DupResults counts results for already-terminal
	// tasks (harmless: the first completion won).
	Requeues, DupResults int
}

// Terminal reports whether every task reached a terminal state.
func (p Progress) Terminal() bool { return p.Done+p.Failed == p.Total }

// Summary is what Wait returns to the coordinator.
type Summary struct {
	Progress
	// Failures are the failed tasks' error strings, in task-ID order.
	Failures []string
	// Stats is the sum of every reporting worker's cache counters;
	// StatsWorkers is how many workers reported.
	Stats        workq.CacheStats
	StatsWorkers int
	// Degraded is set when Wait gave up with tasks still outstanding:
	// no worker connected for the grace window, or Close was called.
	Degraded bool
}

// lease is one outstanding claim.
type lease struct {
	task     workq.Task
	deadline time.Time
	conn     net.Conn
}

// Server owns the coordinator side of the queue: the listener, the task
// states, and the lease table. All exported methods are safe for
// concurrent use.
type Server struct {
	opt       ServerOptions
	ln        net.Listener
	token     string
	tokenFile string // full path of the session token file ("" when disabled)
	stop      chan struct{}

	mu           sync.Mutex
	conns        map[net.Conn]bool
	tasks        map[int]workq.Task // every task ever loaded, by ID
	pending      []workq.Task
	leases       map[int]*lease
	done         map[int]bool
	failed       map[int]string
	total        int
	requeues     int
	dupResults   int
	workersNow   int
	workersEver  int
	stats        workq.CacheStats
	statsWorkers int
	closed       bool

	wg sync.WaitGroup
}

// NewServer listens on addr (host:port; port 0 picks a free one), loads
// the queue with tasks, and starts serving. Close releases the listener
// and the session token file.
func NewServer(addr string, tasks []workq.Task, opt ServerOptions) (*Server, error) {
	if opt.Lease <= 0 {
		opt.Lease = 2 * time.Minute
	}
	if opt.IdleTimeout <= 0 {
		opt.IdleTimeout = 2 * opt.Lease
		if opt.IdleTimeout < 30*time.Second {
			opt.IdleTimeout = 30 * time.Second
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netq: listen %s: %w", addr, err)
	}
	s := &Server{
		opt:     opt,
		ln:      ln,
		stop:    make(chan struct{}),
		conns:   map[net.Conn]bool{},
		tasks:   make(map[int]workq.Task, len(tasks)),
		pending: append([]workq.Task(nil), tasks...),
		leases:  map[int]*lease{},
		done:    map[int]bool{},
		failed:  map[int]string{},
		total:   len(tasks),
	}
	for _, t := range tasks {
		s.tasks[t.ID] = t
	}
	if opt.CacheDir != "" {
		if err := s.writeToken(); err != nil {
			ln.Close()
			return nil, err
		}
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.leaseScan()
	return s, nil
}

// writeToken creates the shared-cache-dir probe token.
func (s *Server) writeToken() error {
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return fmt.Errorf("netq: session token: %w", err)
	}
	s.token = hex.EncodeToString(raw[:])
	s.tokenFile = ".netq-session-" + s.token[:8]
	path := filepath.Join(s.opt.CacheDir, s.tokenFile)
	if err := os.WriteFile(path, []byte(s.token), 0o644); err != nil {
		return fmt.Errorf("netq: session token: %w", err)
	}
	return nil
}

// Addr returns the listener's address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, drops every worker, and removes the token file.
// Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	for conn := range s.conns {
		conn.Close() // unblock handleConn reads; exit order is irrelevant
	}
	s.mu.Unlock()
	if already {
		return
	}
	close(s.stop)
	s.ln.Close()
	s.wg.Wait()
	if s.tokenFile != "" {
		os.Remove(filepath.Join(s.opt.CacheDir, s.tokenFile))
	}
}

// Progress snapshots the queue state.
func (s *Server) Progress() Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.progressLocked()
}

func (s *Server) progressLocked() Progress {
	return Progress{
		Total:       s.total,
		Done:        len(s.done),
		Failed:      len(s.failed),
		Leased:      len(s.leases),
		Pending:     len(s.pending),
		Workers:     s.workersNow,
		WorkersEver: s.workersEver,
		Requeues:    s.requeues,
		DupResults:  s.dupResults,
	}
}

// Wait blocks until every task is terminal, or — degrading to the
// caller's in-process recompute — until no worker has been connected for
// grace with tasks still outstanding (the grace timer restarts whenever a
// worker connects), or until Close is called with tasks still
// outstanding. onTick, when non-nil, is called roughly every 200ms with a
// progress snapshot (the CLI's live stderr line).
func (s *Server) Wait(grace time.Duration, onTick func(Progress)) Summary {
	idleSince := time.Now()
	var terminalSince time.Time
	for {
		s.mu.Lock()
		p := s.progressLocked()
		closed := s.closed
		s.mu.Unlock()
		if onTick != nil {
			onTick(p)
		}
		if p.Terminal() {
			// Linger for still-connected workers: their goodbye frames
			// (the final cache stats) arrive right after they see drained,
			// strictly before their disconnect drops the worker count. A
			// hung worker cannot pin us — the linger is capped.
			if terminalSince.IsZero() {
				terminalSince = time.Now()
			}
			if p.Workers == 0 || time.Since(terminalSince) > 2*time.Second {
				return s.summary(false)
			}
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if closed {
			return s.summary(true)
		}
		if p.Workers > 0 || p.Leased > 0 {
			idleSince = time.Now()
		} else if time.Since(idleSince) > grace {
			return s.summary(true)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// summary assembles the final report.
func (s *Server) summary(degraded bool) Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum := Summary{
		Progress:     s.progressLocked(),
		Stats:        s.stats,
		StatsWorkers: s.statsWorkers,
		Degraded:     degraded,
	}
	ids := make([]int, 0, len(s.failed))
	for id := range s.failed {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		sum.Failures = append(sum.Failures, fmt.Sprintf("task %d: %s", id, s.failed[id]))
	}
	return sum
}

// acceptLoop admits workers until the listener closes.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// leaseScan re-queues expired leases: a worker that stopped heartbeating
// is presumed dead and its tasks go back to the survivors. The scan
// period divides the lease so expiry is detected within a fraction of it.
func (s *Server) leaseScan() {
	defer s.wg.Done()
	period := s.opt.Lease / 4
	if period < 50*time.Millisecond {
		period = 50 * time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		now := time.Now()
		ids := make([]int, 0, len(s.leases))
		for id := range s.leases {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			if l := s.leases[id]; now.After(l.deadline) {
				delete(s.leases, id)
				s.pending = append(s.pending, l.task)
				s.requeues++
			}
		}
		s.mu.Unlock()
	}
}

// handleConn runs one worker connection: handshake, then the
// claim/heartbeat/result loop. Any read error — including the idle
// timeout — drops the connection and immediately re-queues its leases
// (connection loss is a faster death signal than lease expiry).
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)

	deadline := func() { conn.SetReadDeadline(time.Now().Add(s.opt.IdleTimeout)) }
	// send bounds every reply write too: a peer that stops reading with a
	// full socket buffer would otherwise pin this goroutine (and the
	// worker count Wait's degrade logic watches) until Close.
	send := func(m *message) error {
		conn.SetWriteDeadline(time.Now().Add(s.opt.IdleTimeout))
		return writeMsg(conn, m)
	}
	deadline()
	hello, err := readMsg(br)
	if err != nil || hello.Type != msgHello {
		return
	}
	if hello.Proto != ProtoVersion {
		send(&message{Type: msgReject, Proto: ProtoVersion,
			Err: fmt.Sprintf("netq: protocol version skew: coordinator speaks v%d, worker spoke v%d", ProtoVersion, hello.Proto)})
		return
	}
	if err := send(&message{Type: msgWelcome, Proto: ProtoVersion,
		TokenFile: s.tokenFile, Token: s.token}); err != nil {
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns[conn] = true
	s.workersNow++
	s.workersEver++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.workersNow--
		s.releaseConnLeasesLocked(conn)
		s.mu.Unlock()
	}()

	for {
		deadline()
		m, err := readMsg(br)
		if err != nil {
			return
		}
		switch m.Type {
		case msgClaim:
			if err := send(s.claim(conn)); err != nil {
				return
			}
		case msgHeartbeat:
			s.heartbeat(conn, m.ID)
		case msgResult:
			ack := s.result(conn, m)
			if err := send(ack); err != nil {
				return
			}
		case msgGoodbye:
			s.mu.Lock()
			if m.Stats != nil {
				s.stats.Add(*m.Stats)
				s.statsWorkers++
			}
			s.mu.Unlock()
		default:
			return // protocol violation: drop the worker, leases re-queue
		}
	}
}

// claim pops the next pending task under a fresh lease, or reports the
// queue state (wait while leases are outstanding, drained when every
// task is terminal).
func (s *Server) claim(conn net.Conn) *message {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pending) > 0 {
		t := s.pending[0]
		s.pending = s.pending[1:]
		if s.done[t.ID] || s.failed[t.ID] != "" {
			// Re-queued by a lease expiry or connection drop, then finished
			// by the original worker after all: already terminal, skip.
			continue
		}
		s.leases[t.ID] = &lease{task: t, deadline: time.Now().Add(s.opt.Lease), conn: conn}
		task := t
		return &message{Type: msgTask, Task: &task}
	}
	if s.progressLocked().Terminal() || s.closed {
		return &message{Type: msgDrained}
	}
	// Tasks are leased elsewhere; one may come back if its worker
	// dies, so the worker should poll rather than leave.
	return &message{Type: msgWait, WaitMS: 200}
}

// heartbeat extends the caller's lease. A heartbeat for a lease this
// connection no longer holds (expired and re-queued, or re-leased to
// another worker) is ignored; the eventual duplicate result is handled
// idempotently.
func (s *Server) heartbeat(conn net.Conn, id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.leases[id]; ok && l.conn == conn {
		l.deadline = time.Now().Add(s.opt.Lease)
	}
}

// result records one completion. The first successful result for a task
// wins; later duplicates (a reclaimed lease raced its original worker)
// are acknowledged and dropped, keeping completion exactly-once no
// matter how many workers finish the same task. Failures are narrower:
// only the current lease holder may fail a task (a stale worker's error
// must not pin the task failed while the live holder is still
// computing), and a success always supersedes an earlier failure — the
// result is content-addressed, so whoever computed it computed the same
// thing.
func (s *Server) result(conn net.Conn, m *message) *message {
	s.mu.Lock()
	task, known := s.tasks[m.ID]
	if !known {
		// A result for a task this queue never issued must not touch the
		// terminal maps: their sizes drive Progress.Terminal, so a bogus
		// ID could end Wait with real tasks still outstanding.
		s.dupResults++
		s.mu.Unlock()
		return &message{Type: msgAck, ID: m.ID, Err: "unknown task"}
	}
	if s.done[m.ID] {
		s.dupResults++
		s.mu.Unlock()
		return &message{Type: msgAck, ID: m.ID}
	}
	if m.Err != "" {
		if l := s.leases[m.ID]; l != nil && l.conn == conn {
			delete(s.leases, m.ID)
			s.failed[m.ID] = m.Err
		} else {
			// Reclaimed lease: the task is pending again or another worker
			// holds it now. Dropping the stale failure leaves the live
			// attempt free to succeed instead of being dup-dropped against
			// a terminal failed state.
			s.dupResults++
		}
		s.mu.Unlock()
		return &message{Type: msgAck, ID: m.ID}
	}
	delete(s.leases, m.ID)
	s.mu.Unlock()

	// Store outside the lock: artifact writes hit the disk. Idempotence
	// holds because a duplicate store writes identical bytes under the
	// same content key.
	if len(m.Artifact) > 0 {
		if s.opt.StoreArtifact == nil {
			return s.failResult(m.ID, "coordinator does not accept streamed artifacts")
		}
		key, err := s.storeKey(task, m.Key)
		if err != nil {
			return s.failResult(m.ID, err.Error())
		}
		if err := s.opt.StoreArtifact(key, m.Artifact); err != nil {
			return s.failResult(m.ID, fmt.Sprintf("store streamed artifact: %v", err))
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done[m.ID] {
		s.dupResults++
	} else {
		delete(s.failed, m.ID) // success supersedes an earlier failure
		s.done[m.ID] = true
	}
	return &message{Type: msgAck, ID: m.ID}
}

// storeKey names the cache entry a streamed artifact lands under. With
// TaskKey configured the key is derived from the coordinator's own copy
// of the task and the worker-reported wire key is ignored; without it
// the wire key is used but must have the bare content-hash shape.
func (s *Server) storeKey(t workq.Task, wire string) (string, error) {
	if s.opt.TaskKey != nil {
		key, err := s.opt.TaskKey(t)
		if err != nil {
			return "", fmt.Errorf("derive artifact key: %v", err)
		}
		return key, nil
	}
	if !validWireKey(wire) {
		return "", fmt.Errorf("malformed artifact key %q", wire)
	}
	return wire, nil
}

// validWireKey accepts exactly the shape artifact content keys have —
// non-empty lowercase hex, bounded length. Everything else (path
// separators, dots, uppercase, unicode) is rejected before the key gets
// anywhere near a filepath.Join.
func validWireKey(key string) bool {
	if len(key) == 0 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// failResult marks a completion that could not be recorded; the final
// in-process pass recomputes the cell.
func (s *Server) failResult(id int, reason string) *message {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done[id] && s.failed[id] == "" {
		s.failed[id] = reason
	}
	return &message{Type: msgAck, ID: id, Err: reason}
}

// releaseConnLeasesLocked re-queues every lease held by a dying
// connection. Caller holds s.mu.
func (s *Server) releaseConnLeasesLocked(conn net.Conn) {
	ids := make([]int, 0, len(s.leases))
	for id := range s.leases {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if l := s.leases[id]; l.conn == conn {
			delete(s.leases, id)
			s.pending = append(s.pending, l.task)
			s.requeues++
		}
	}
}
