// Package faultinject is a deterministic fault-injection layer for the
// executor. It is build-tag-free: an *Injector travels through
// exec.Options and a nil injector costs one branch per visit, so
// production paths pay nothing when injection is off.
//
// The executor reports each passage through an instrumented point as a
// "visit" to a (Site, node-ID) key. Visits are counted under a mutex,
// so the Nth visit to a key is well defined even under the morsel
// worker pool; the counts themselves depend only on the plan shape and
// the data, never on worker scheduling, which is what makes armed
// faults reproducible at any worker count.
//
// Two firing modes exist:
//
//   - Armed mode (Arm): fire exactly once, at the Nth visit to one key,
//     either as an error return or as a panic. Chaos tests first run a
//     query with a fresh recording injector, read Visits(), then replay
//     the query once per (key, visit) arming each point in turn.
//   - Seeded mode (NewSeeded): fire on a pseudo-random but fully
//     deterministic subset of visits — a 64-bit mix of (seed, key,
//     ordinal) selects roughly one visit in `period`. Useful for
//     soak-style sweeps where enumerating every point is too slow.
//
// Every injected fault wraps ErrInjected, so callers assert surfacing
// with errors.Is(err, faultinject.ErrInjected) regardless of how many
// operator or query-level wrappers accumulated on the way out.
package faultinject

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"
)

// Site classifies the executor locations that report visits.
type Site uint8

const (
	// SiteOp is operator-evaluation entry: one visit per evalMemo call
	// (memo hits included), attributed to the operator's node ID.
	SiteOp Site = iota
	// SiteMorsel is a morsel boundary in the worker pool: one visit per
	// claimed morsel, attributed to the operator that fanned out.
	SiteMorsel
	// SiteMemoFill is the store of a cacheable operator result into the
	// shared memo, attributed to the operator being cached.
	SiteMemoFill
	// SiteVec is the entry of a vectorized kernel (after its inputs
	// evaluated, before morsels fan out), attributed to the operator
	// running vectorized.
	SiteVec
	// SiteWALAppend is a write-ahead-log record append, visited before
	// any frame byte reaches the log file. Disk site: node is -1.
	SiteWALAppend
	// SiteWALSync is a WAL fsync, visited before the kernel sync call.
	// Disk site: node is -1.
	SiteWALSync
	// SiteSnapshot is visited three times per checkpoint: visit 1 before
	// the snapshot temp file is written, visit 2 after the atomic rename
	// publishes it (before log truncation), visit 3 after truncation.
	// Disk site: node is -1.
	SiteSnapshot
	// SiteAccept is a server accept: one visit per accepted TCP
	// connection, before any session state exists. Network site: node
	// is -1.
	SiteAccept
	// SiteConnRead is a completed request frame read off a client
	// connection, visited before the frame is parsed. A fired fault is
	// treated as a connection loss. Network site: node is -1.
	SiteConnRead
	// SiteConnWrite is a response frame write to a client connection,
	// visited before any byte is written. A fired fault is treated as a
	// write failure and tears the session down. Network site: node is -1.
	SiteConnWrite
)

func (s Site) String() string {
	switch s {
	case SiteOp:
		return "op"
	case SiteMorsel:
		return "morsel"
	case SiteMemoFill:
		return "memo-fill"
	case SiteVec:
		return "vec"
	case SiteWALAppend:
		return "wal-append"
	case SiteWALSync:
		return "wal-sync"
	case SiteSnapshot:
		return "snapshot"
	case SiteAccept:
		return "accept"
	case SiteConnRead:
		return "conn-read"
	case SiteConnWrite:
		return "conn-write"
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// ParseSite resolves a site name (the String form) back to a Site; the
// crash-chaos harness passes sites to its child process by name.
func ParseSite(name string) (Site, bool) {
	for _, s := range []Site{SiteOp, SiteMorsel, SiteMemoFill, SiteVec, SiteWALAppend, SiteWALSync, SiteSnapshot, SiteAccept, SiteConnRead, SiteConnWrite} {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// ErrInjected is the sentinel every injected fault wraps (including the
// value thrown by panic-mode faults, which is an error wrapping it).
var ErrInjected = errors.New("faultinject: injected fault")

// ErrShortWrite is the sentinel for short-write-mode faults at disk
// sites: the instrumented writer must write a strict prefix of the
// intended bytes and then fail with the returned error, leaving a
// genuinely torn record behind. It wraps ErrInjected.
var ErrShortWrite = fmt.Errorf("%w: short write", ErrInjected)

// Mode selects what an armed fault does when it fires.
type Mode uint8

const (
	// ModeError returns an error wrapping ErrInjected from Visit.
	ModeError Mode = iota
	// ModePanic panics with an error wrapping ErrInjected.
	ModePanic
	// ModeShortWrite returns an error wrapping ErrShortWrite; disk-site
	// callers (the WAL) respond by persisting a torn prefix of the write
	// before surfacing the error.
	ModeShortWrite
	// ModeKill SIGKILLs the current process — the crash-chaos harness's
	// way of dying at an exact disk-site visit with no chance for
	// deferred cleanup, exactly like a power cut.
	ModeKill
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeShortWrite:
		return "short-write"
	case ModeKill:
		return "kill"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Key identifies one class of injection point: a site plus the physical
// node ID that visited it. Node is -1 when the visit could not be
// attributed to a plan node.
type Key struct {
	Site Site
	Node int
}

func (k Key) String() string { return fmt.Sprintf("%s@%d", k.Site, k.Node) }

type arm struct {
	nth  int64
	mode Mode
}

// Injector counts visits to injection points and fires armed or seeded
// faults. The zero value is not usable; construct with New or
// NewSeeded. All methods are safe for concurrent use.
type Injector struct {
	mu     sync.Mutex
	visits map[Key]int64
	arms   map[Key]arm
	fired  int64

	// seeded mode; period == 0 disables it
	seed   uint64
	period uint64
}

// New returns an injector in recording mode: it counts visits and fires
// nothing until Arm is called.
func New() *Injector {
	return &Injector{visits: make(map[Key]int64), arms: make(map[Key]arm)}
}

// NewSeeded returns an injector that fires an error (never a panic) on
// a deterministic pseudo-random subset of visits: each visit fires with
// probability 1/period, decided by mixing (seed, key, ordinal). The
// same seed and workload fire the same faults on every run.
func NewSeeded(seed uint64, period uint64) *Injector {
	in := New()
	in.seed = seed
	if period == 0 {
		period = 1
	}
	in.period = period
	return in
}

// Arm schedules a fault at the nth (1-based) visit to (site, node): an
// error return, or a panic when panics is set. Re-arming the same key
// replaces the previous arm. Arming is typically done between queries,
// but is safe at any time.
func (in *Injector) Arm(site Site, node int, nth int64, panics bool) {
	mode := ModeError
	if panics {
		mode = ModePanic
	}
	in.ArmMode(site, node, nth, mode)
}

// ArmMode is Arm with an explicit firing mode — the disk sites use
// ModeShortWrite for torn-write simulation and ModeKill for
// crash-chaos kill points.
func (in *Injector) ArmMode(site Site, node int, nth int64, mode Mode) {
	in.mu.Lock()
	in.arms[Key{Site: site, Node: node}] = arm{nth: nth, mode: mode}
	in.mu.Unlock()
}

// Disarm removes any armed fault on (site, node).
func (in *Injector) Disarm(site Site, node int) {
	in.mu.Lock()
	delete(in.arms, Key{Site: site, Node: node})
	in.mu.Unlock()
}

// Reset clears visit counts and the fired counter but keeps arms and
// the seeded configuration, so one injector can replay many queries.
func (in *Injector) Reset() {
	in.mu.Lock()
	in.visits = make(map[Key]int64)
	in.fired = 0
	in.mu.Unlock()
}

// Visit records one visit to (site, node) and fires the due fault, if
// any: armed panics panic with an error wrapping ErrInjected; armed and
// seeded errors are returned wrapping ErrInjected.
func (in *Injector) Visit(site Site, node int) error {
	key := Key{Site: site, Node: node}
	in.mu.Lock()
	in.visits[key]++
	n := in.visits[key]
	var fire bool
	mode := ModeError
	if a, ok := in.arms[key]; ok && n == a.nth {
		fire, mode = true, a.mode
	} else if in.period > 1 && mix(in.seed, key, n)%in.period == 0 {
		fire = true
	}
	if fire {
		in.fired++
	}
	in.mu.Unlock()
	if !fire {
		return nil
	}
	switch mode {
	case ModePanic:
		panic(fmt.Errorf("%w at %s visit %d", ErrInjected, key, n))
	case ModeShortWrite:
		return fmt.Errorf("%w at %s visit %d", ErrShortWrite, key, n)
	case ModeKill:
		// A real crash: no deferred cleanup, no flushing, no unwinding.
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // unreachable: wait for the signal to land
	}
	return fmt.Errorf("%w at %s visit %d", ErrInjected, key, n)
}

// Visits returns a snapshot of per-key visit counts. A recording pass
// (fresh New, no arms) uses this to enumerate every reachable injection
// point for a given plan and worker count.
func (in *Injector) Visits() map[Key]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Key]int64, len(in.visits))
	for k, v := range in.visits {
		out[k] = v
	}
	return out
}

// Fired reports how many faults have fired since the last Reset.
func (in *Injector) Fired() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// mix collapses (seed, key, ordinal) into a 64-bit value with a
// splitmix64-style finalizer; quality only has to be good enough for
// an even spread of seeded faults.
func mix(seed uint64, key Key, n int64) uint64 {
	z := seed ^ uint64(key.Site)<<56 ^ uint64(uint32(key.Node))<<24 ^ uint64(n)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
