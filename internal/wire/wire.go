// Package wire defines disqod's client/server protocol: one JSON
// object per line in each direction (newline-delimited, UTF-8, no
// literal newlines inside a frame — encoding/json escapes them). The
// package holds only the frame types and the result codec, so both the
// server (disqo/internal/server) and the client (disqo.Client, in the
// root package) can share them without an import cycle.
//
// A request names an op and its arguments; the response echoes the
// request's id and carries either a result or a typed error. Error
// kinds mirror the engine's sentinel errors one-for-one (overloaded,
// closed, timeout, memory, canceled, query, ...) — the paper's scalar
// subquery semantics make faithful error propagation a correctness
// requirement, not a convenience: a cardinality violation must arrive
// as the query error it is, never as a generic disconnect.
//
// A result's rows travel as one columnar binary Frame, base64-encoded
// in the response's "rows" field, so there is one framing and MaxFrame
// bounds it like any other line. An empty frame is zero rows; otherwise
//
//	frame  = uvarint rows ≥ 1, uvarint cols ≥ 1, column × cols
//	column = kind byte, null bitmap (⌈rows/8⌉ bytes; bit i%8 of byte
//	         i/8 set = row i NULL), [a kind byte per non-NULL row if
//	         kind is mixed], the non-NULL values in row order
//	value  = int: zigzag uvarint | float: 8 bytes, little-endian IEEE
//	         bits | bool: one byte 0/1 | string: uvarint length, bytes
//
// Values round-trip exactly, with no case to special: ints are never a
// JSON number, so nothing past 2^53 is rounded; floats are their bits,
// so NaN, ±Inf and -0 survive; strings are bytes, so invalid UTF-8 is
// not replaced the way encoding/json replaces it in a JSON string.
// Byte-identity between a served result and an in-process query result
// is load-bearing for the chaos suite. Every encoding is canonical — a
// frame DecodeRows accepts re-encodes to itself — and DecodeRows
// allocates no more than the frame's length allows.
package wire

import "fmt"

// DefaultMaxFrame bounds one protocol line (request or response) in
// bytes unless the server or client overrides it. Oversized frames are
// a protocol error: the slowloris defense must never buffer an unbounded
// line.
const DefaultMaxFrame = 4 << 20

// Request ops.
const (
	// OpQuery executes a SELECT — req.SQL, or the named prepared
	// statement when req.Name is set.
	OpQuery = "query"
	// OpExec executes DML/DDL (req.SQL) and returns rows affected.
	OpExec = "exec"
	// OpPrepare parses and plans req.SQL once, storing it in the
	// session under req.Name for later OpQuery calls.
	OpPrepare = "prepare"
	// OpClose closes the named prepared statement.
	OpClose = "close"
	// OpSet updates session defaults (strategy, nulls, timeout).
	OpSet = "set"
	// OpPing returns server role, staleness, and session counts.
	OpPing = "ping"
	// OpReplicate switches the connection into a replication stream:
	// after this handshake line the server sends binary WAL-framed
	// records (and snapshot/heartbeat frames) starting after
	// req.FromLSN, and no further JSON flows in either direction.
	OpReplicate = "replicate"
)

// Error kinds, mirroring the engine's typed errors across the wire.
const (
	// KindOverloaded maps ErrOverloaded: admission or connection
	// backpressure shed the request — back off and retry.
	KindOverloaded = "overloaded"
	// KindClosed maps ErrClosed and server drain: the server is
	// shutting down (or reaped the idle session); reconnect elsewhere.
	KindClosed = "closed"
	// KindTimeout maps ErrTimeout / context.DeadlineExceeded from the
	// per-request deadline.
	KindTimeout = "timeout"
	// KindMemory maps ErrMemoryLimit / ErrTupleLimit.
	KindMemory = "memory"
	// KindCanceled maps context.Canceled.
	KindCanceled = "canceled"
	// KindQuery is a *QueryError whose cause is none of the above —
	// including the paper's scalar-subquery cardinality violations.
	KindQuery = "query"
	// KindInvalid is a parse or planning error: the statement itself is
	// wrong, retrying cannot help.
	KindInvalid = "invalid"
	// KindReadOnly rejects writes on a replica.
	KindReadOnly = "read_only"
	// KindSealed maps ErrWALSealed: the writer's log failed closed.
	KindSealed = "sealed"
	// KindProtocol is a malformed frame: bad JSON, unknown op, missing
	// argument, or a frame over the size limit.
	KindProtocol = "protocol"
)

// Request is one client frame.
type Request struct {
	// ID is echoed verbatim in the response so pipelined clients can
	// match frames; the server never interprets it.
	ID uint64 `json:"id,omitempty"`
	// Op selects the operation (Op* constants).
	Op string `json:"op"`
	// SQL is the statement text for query/exec/prepare.
	SQL string `json:"sql,omitempty"`
	// Name references a session prepared statement (prepare/close, and
	// query when SQL is empty).
	Name string `json:"name,omitempty"`
	// Strategy/Nulls override the session defaults for this
	// request (query) or set them (set). Nulls selects the null
	// semantics: "3vl" (SQL three-valued, the default) or "2vl"
	// (comparisons with NULL are false).
	Strategy string `json:"strategy,omitempty"`
	Nulls    string `json:"nulls,omitempty"`
	// TimeoutMS bounds this request's execution; 0 uses the session
	// default. The deadline is wired into QueryContext, so expiry
	// aborts within one morsel.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// FromLSN is OpReplicate's resume position: the last WAL record the
	// replica has applied (0 for a fresh replica). The server streams
	// records after it, shipping a checkpoint snapshot first when log
	// truncation left a gap.
	FromLSN uint64 `json:"from_lsn,omitempty"`
}

// Response is one server frame.
type Response struct {
	ID uint64 `json:"id,omitempty"`
	OK bool   `json:"ok"`
	// Columns/Rows carry a query result.
	Columns []string `json:"columns,omitempty"`
	Rows    Frame    `json:"rows,omitempty"`
	// Affected is exec's rows-affected count.
	Affected int `json:"affected,omitempty"`
	// Stats are the per-query execution counters.
	Stats *Stats `json:"stats,omitempty"`
	// Error is set when OK is false.
	Error *Error `json:"error,omitempty"`
	// Server answers a ping.
	Server *ServerInfo `json:"server,omitempty"`
}

// Stats is the per-query counter summary a response carries (a
// projection of exec.Stats plus wall time).
type Stats struct {
	ElapsedUS     int64 `json:"elapsed_us"`
	Comparisons   int64 `json:"comparisons,omitempty"`
	TuplesOut     int64 `json:"tuples_out,omitempty"`
	SubqueryEvals int64 `json:"subquery_evals,omitempty"`
	Rows          int   `json:"rows"`
}

// Error is the typed failure a response carries. Kind is the contract;
// Message is for humans. Node/Op/Strategy survive from *QueryError so
// a remote failure is as attributable as a local one.
type Error struct {
	Kind     string `json:"kind"`
	Message  string `json:"message"`
	Node     int    `json:"node,omitempty"`
	Op       string `json:"op,omitempty"`
	Strategy string `json:"strategy,omitempty"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("disqod: [%s] %s", e.Kind, e.Message)
}

// ServerInfo answers OpPing.
type ServerInfo struct {
	// Role is "writer" or "replica".
	Role string `json:"role"`
	// Draining is true once SIGTERM arrived: finish in-flight work and
	// reconnect elsewhere.
	Draining bool `json:"draining,omitempty"`
	// Sessions/Conns are the server's live session and connection
	// counts (equal today; conns counts sockets before handshake too).
	Sessions int `json:"sessions"`
	Conns    int `json:"conns"`
	// AppliedLSN and StalenessMS describe a replica's position: the
	// last WAL record applied and the time since the writer was last
	// heard from. Zero on a writer.
	AppliedLSN  uint64 `json:"applied_lsn,omitempty"`
	StalenessMS int64  `json:"staleness_ms,omitempty"`
}
