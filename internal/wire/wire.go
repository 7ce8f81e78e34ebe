// Package wire defines disqod's client/server protocol: one JSON
// object per line in each direction (newline-delimited, UTF-8, no
// literal newlines inside a frame — encoding/json escapes them). The
// package holds only the frame types and the value codec, so both the
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
// Values round-trip exactly: strings, booleans and NULL use their
// native JSON forms, while integers and floats are carried as tagged
// decimal strings ({"i":"..."} / {"f":"..."}) because a bare JSON
// number silently loses 64-bit integer precision past 2^53 and can
// reformat floats. Byte-identity between a served result and an
// in-process query result is load-bearing for the chaos suite.
package wire

import (
	"encoding/json"
	"fmt"
	"strconv"

	"disqo/internal/types"
)

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
	Columns []string  `json:"columns,omitempty"`
	Rows    [][]Value `json:"rows,omitempty"`
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

// Value wraps a types.Value with the exact-round-trip JSON encoding
// described in the package comment.
type Value struct {
	V types.Value
}

// MarshalJSON encodes per kind: null/bool/string natively, int and
// float as tagged decimal strings.
func (v Value) MarshalJSON() ([]byte, error) {
	switch v.V.Kind() {
	case types.KindNull:
		return []byte("null"), nil
	case types.KindBool:
		if b, _ := v.V.BoolOk(); b {
			return []byte("true"), nil
		}
		return []byte("false"), nil
	case types.KindString:
		s, _ := v.V.StrOk()
		return json.Marshal(s)
	case types.KindInt:
		i, _ := v.V.IntOk()
		return json.Marshal(map[string]string{"i": strconv.FormatInt(i, 10)})
	case types.KindFloat:
		f, _ := v.V.FloatOk()
		// 'g'/-1 is the shortest form ParseFloat reads back exactly, and
		// unlike a bare JSON number it also survives NaN and ±Inf.
		return json.Marshal(map[string]string{"f": strconv.FormatFloat(f, 'g', -1, 64)})
	default:
		return nil, fmt.Errorf("wire: unencodable value kind %d", v.V.Kind())
	}
}

// UnmarshalJSON decodes the encoding MarshalJSON produces.
func (v *Value) UnmarshalJSON(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("wire: empty value")
	}
	switch data[0] {
	case 'n':
		v.V = types.Null()
		return nil
	case 't', 'f':
		var b bool
		if err := json.Unmarshal(data, &b); err != nil {
			return err
		}
		v.V = types.NewBool(b)
		return nil
	case '"':
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		v.V = types.NewString(s)
		return nil
	case '{':
		var tag struct {
			I *string `json:"i"`
			F *string `json:"f"`
		}
		if err := json.Unmarshal(data, &tag); err != nil {
			return err
		}
		switch {
		case tag.I != nil:
			i, err := strconv.ParseInt(*tag.I, 10, 64)
			if err != nil {
				return fmt.Errorf("wire: bad int %q: %w", *tag.I, err)
			}
			v.V = types.NewInt(i)
			return nil
		case tag.F != nil:
			f, err := strconv.ParseFloat(*tag.F, 64)
			if err != nil {
				return fmt.Errorf("wire: bad float %q: %w", *tag.F, err)
			}
			v.V = types.NewFloat(f)
			return nil
		}
		return fmt.Errorf("wire: tagged value with neither i nor f")
	default:
		return fmt.Errorf("wire: unrecognized value %q", data)
	}
}

// EncodeRows converts engine tuples to wire rows.
func EncodeRows(rows [][]types.Value) [][]Value {
	out := make([][]Value, len(rows))
	for i, row := range rows {
		w := make([]Value, len(row))
		for j, v := range row {
			w[j] = Value{V: v}
		}
		out[i] = w
	}
	return out
}

// DecodeRows converts wire rows back to engine tuples.
func DecodeRows(rows [][]Value) [][]types.Value {
	out := make([][]types.Value, len(rows))
	for i, row := range rows {
		vals := make([]types.Value, len(row))
		for j, v := range row {
			vals[j] = v.V
		}
		out[i] = vals
	}
	return out
}
