package xserver

import (
	"fmt"
	"strconv"
	"strings"
)

// Per-session resource quotas (docs/farm.md). A Quota bounds what one
// virtual display may allocate, so one tenant of a farm cannot starve
// the rest: the bounded resources are the ones a client can create
// without limit (windows, pixmap bytes, GCs). Enforcement happens at
// the allocation site with a clean X protocol error — the offending
// request fails, the connection lives on, and the client sees the
// denial through the ordinary error path (Display.ErrorHandler), never
// a kill.

// Quota bounds one server's (one farm session's) resource allocation.
// A zero field means that resource is unlimited.
type Quota struct {
	MaxWindows     int64 // live windows (the root does not count)
	MaxPixmapBytes int64 // sum of nominal pixmap sizes, width·height·4
	MaxGCs         int64 // live graphics contexts
}

// SetQuota installs the quota. Call before the server accepts its
// first connection.
func (s *Server) SetQuota(q Quota) { s.quota = q }

// QuotaUsage reports live quota-accounted usage. After every client of
// the server has disconnected and been cleaned up, all three are zero
// (the reconciliation invariant the farm tests assert).
func (s *Server) QuotaUsage() (windows, pixmapBytes, gcs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.usedWindows, s.usedPixmapBytes, s.usedGCs
}

// reserveQuota claims n units of *used against limit, failing without
// side effects if the claim would exceed it. A non-positive limit is
// unlimited (the claim is still counted, so usage reporting and
// release stay uniform).
func reserveQuota(used *int64, limit, n int64) bool {
	if limit > 0 && *used+n > limit {
		return false
	}
	*used += n
	return true
}

// quotaDenied counts a denial and sends the clean X error for it. The
// resource label is one of "windows", "pixmap_bytes", "gcs" — each a
// quota.denied.<resource> counter on the session registry and, when the
// session belongs to a farm, on the farm's aggregate registry too.
func (s *Server) quotaDenied(c *conn, resource, req string, limit int64) {
	s.metrics.Counter("quota.denied." + resource).Inc()
	if s.rollup != nil {
		s.rollup.Counter("quota.denied." + resource).Inc()
	}
	c.protoError("%s: session quota exceeded: %s limit %d reached", req, resource, limit)
}

// ParseQuota parses the xsimd -quota flag syntax: comma-separated
// key=value pairs with keys "windows", "pixmap-bytes" and "gcs", e.g.
// "windows=256,pixmap-bytes=16m,gcs=128". Byte values take an optional
// binary-multiple suffix k, m or g. Empty spec = unlimited everything.
func ParseQuota(spec string) (Quota, error) {
	var q Quota
	if strings.TrimSpace(spec) == "" {
		return q, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Quota{}, fmt.Errorf("quota: %q is not key=value", part)
		}
		n, err := parseQuotaValue(strings.TrimSpace(val))
		if err != nil {
			return Quota{}, fmt.Errorf("quota %s: %v", key, err)
		}
		switch strings.TrimSpace(key) {
		case "windows":
			q.MaxWindows = n
		case "pixmap-bytes":
			q.MaxPixmapBytes = n
		case "gcs":
			q.MaxGCs = n
		default:
			return Quota{}, fmt.Errorf("quota: unknown resource %q (want windows, pixmap-bytes or gcs)", key)
		}
	}
	return q, nil
}

// parseQuotaValue parses a non-negative integer with an optional binary
// k/m/g suffix.
func parseQuotaValue(s string) (int64, error) {
	shift := 0
	switch {
	case s == "":
		return 0, fmt.Errorf("empty value")
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		shift, s = 10, s[:len(s)-1]
	case strings.HasSuffix(s, "m"), strings.HasSuffix(s, "M"):
		shift, s = 20, s[:len(s)-1]
	case strings.HasSuffix(s, "g"), strings.HasSuffix(s, "G"):
		shift, s = 30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("negative value %d", n)
	}
	v := n << shift
	if shift > 0 && v>>shift != n {
		return 0, fmt.Errorf("value %s overflows", s)
	}
	return v, nil
}
