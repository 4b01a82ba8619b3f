// Package node assembles standalone cluster processes — a training root, a
// warm standby, a worker — from one declarative configuration. It is the
// layer the gcroot/gcworker binaries are built on: static discovery comes
// from a roster file, durability/HA/telemetry from the composable blocks in
// internal/clustercfg, and the runtime pieces (training root, checkpoint
// store, lease, standby, data plane) are wired together here instead of in
// every main().
package node

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
)

// ErrRoster marks an unusable roster file. Every error carries a remediation
// hint — a roster problem is an operator problem, and "parse error" alone
// sends them to the source code instead of the file.
var ErrRoster = errors.New("node: invalid roster")

// Roster is the static discovery plan of a cluster: who the root is, which
// standbys may replace it, and how many workers training waits for. One file
// is shared verbatim by every member of the cluster.
type Roster struct {
	// Root is the training root's listen address (host:port).
	Root string `json:"root"`
	// Standbys are warm-standby listen addresses, in promotion preference
	// order. A worker that loses the root tries these next.
	Standbys []string `json:"standbys"`
	// Workers is the expected worker count — the membership the root waits
	// for before training starts.
	Workers int `json:"workers"`
	// Metrics are the telemetry endpoints (host:port of each node's
	// -metrics-addr) the gcctl fleet aggregator scrapes. Optional: an empty
	// list just means gcctl has nothing to discover here. Order is free, but
	// listing the root's endpoint first makes dashboards read naturally.
	Metrics []string `json:"metrics,omitempty"`
}

// Addrs returns the worker's resolve order: the root first, then every
// standby.
func (r *Roster) Addrs() []string {
	return append([]string{r.Root}, r.Standbys...)
}

// Validate enforces the roster invariants shared by both file formats.
func (r *Roster) Validate() error {
	if r.Root == "" {
		return fmt.Errorf(`%w: no root address — add root = "host:port"`, ErrRoster)
	}
	seen := map[string]bool{}
	for _, addr := range r.Addrs() {
		if _, _, err := net.SplitHostPort(addr); err != nil {
			return fmt.Errorf(`%w: address %q is not host:port (%v) — every member needs an explicit port`, ErrRoster, addr, err)
		}
		if seen[addr] {
			return fmt.Errorf("%w: address %q listed twice — each member needs its own listen address", ErrRoster, addr)
		}
		seen[addr] = true
	}
	if r.Workers <= 0 {
		return fmt.Errorf("%w: workers = %d — the expected worker count gates training start and must be positive", ErrRoster, r.Workers)
	}
	seenM := map[string]bool{}
	for _, addr := range r.Metrics {
		if _, _, err := net.SplitHostPort(addr); err != nil {
			return fmt.Errorf(`%w: metrics address %q is not host:port (%v) — list each node's -metrics-addr endpoint`, ErrRoster, addr, err)
		}
		if seenM[addr] {
			return fmt.Errorf("%w: metrics address %q listed twice — each telemetry endpoint appears once", ErrRoster, addr)
		}
		seenM[addr] = true
	}
	return nil
}

// LoadRoster reads and parses a roster file (TOML or JSON, sniffed by
// content).
func LoadRoster(path string) (*Roster, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRoster, err)
	}
	r, err := ParseRoster(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// ParseRoster parses a roster from TOML (the documented format) or JSON
// (for generated files); a leading '{' selects JSON. Both formats reject
// unknown keys — a typo like "worker = 4" must fail loudly, not silently
// train with a default.
func ParseRoster(b []byte) (*Roster, error) {
	if bytes.HasPrefix(bytes.TrimLeft(b, " \t\r\n"), []byte("{")) {
		return parseJSONRoster(b)
	}
	return parseTOMLRoster(b)
}

func parseJSONRoster(b []byte) (*Roster, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	r := &Roster{}
	if err := dec.Decode(r); err != nil {
		return nil, fmt.Errorf(`%w: bad JSON (%v) — expected {"root": "host:port", "standbys": [...], "workers": n}`, ErrRoster, err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("%w: trailing content after the JSON object", ErrRoster)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// parseTOMLRoster parses the flat TOML subset the roster uses: top-level
// `key = value` lines where values are quoted strings, integers, or arrays
// of quoted strings. Comments (#) and blank lines are allowed; sections,
// multi-line values and everything else TOML are not — the roster is three
// keys, and a stricter parser gives better errors than a lenient one.
func parseTOMLRoster(b []byte) (*Roster, error) {
	r := &Roster{}
	seen := map[string]bool{}
	for i, raw := range strings.Split(string(b), "\n") {
		line := strings.TrimSpace(stripComment(raw))
		if line == "" {
			continue
		}
		lineNo := i + 1
		if strings.HasPrefix(line, "[") {
			return nil, fmt.Errorf("%w: line %d: the roster has no sections — use top-level root, standbys, workers", ErrRoster, lineNo)
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("%w: line %d: expected key = value, got %q", ErrRoster, lineNo, line)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if seen[key] {
			return nil, fmt.Errorf("%w: line %d: key %q set twice", ErrRoster, lineNo, key)
		}
		seen[key] = true
		var err error
		switch key {
		case "root":
			r.Root, err = tomlString(val)
		case "standbys":
			r.Standbys, err = tomlStringArray(val)
		case "workers":
			r.Workers, err = strconv.Atoi(val)
			if err != nil {
				err = fmt.Errorf("workers must be an integer, got %q", val)
			}
		case "metrics":
			r.Metrics, err = tomlStringArray(val)
		default:
			err = fmt.Errorf("unknown key %q — the roster keys are root, standbys, workers, metrics", key)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrRoster, lineNo, err)
		}
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// stripComment removes a trailing # comment, respecting quoted strings.
func stripComment(line string) string {
	inStr := false
	for i, c := range line {
		switch c {
		case '"':
			inStr = !inStr
		case '#':
			if !inStr {
				return line[:i]
			}
		}
	}
	return line
}

func tomlString(val string) (string, error) {
	s, err := strconv.Unquote(val)
	if err != nil || !strings.HasPrefix(val, `"`) {
		return "", fmt.Errorf(`expected a quoted string, got %s`, val)
	}
	return s, nil
}

func tomlStringArray(val string) ([]string, error) {
	if !strings.HasPrefix(val, "[") || !strings.HasSuffix(val, "]") {
		return nil, fmt.Errorf(`expected an array like ["host:port", ...], got %s`, val)
	}
	inner := strings.TrimSpace(val[1 : len(val)-1])
	if inner == "" {
		return nil, nil
	}
	var out []string
	for _, item := range strings.Split(inner, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			return nil, fmt.Errorf("array has an empty element (trailing comma?)")
		}
		s, err := tomlString(item)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
