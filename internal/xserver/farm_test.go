package xserver

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/xclient"
	"repro/internal/xproto"
)

// waitQuotaZero polls until the server's quota usage reconciles to
// zero on every axis (connection cleanup runs asynchronously after the
// client side closes).
func waitQuotaZero(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		w, pb, g := s.QuotaUsage()
		if w == 0 && pb == 0 && g == 0 {
			return
		}
		if w < 0 || pb < 0 || g < 0 {
			t.Fatalf("quota usage went negative (double release): windows=%d pixmapBytes=%d gcs=%d", w, pb, g)
		}
		if time.Now().After(deadline) {
			t.Fatalf("quota did not reconcile to zero: windows=%d pixmapBytes=%d gcs=%d", w, pb, g)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFarmSessionsAreIsolated: two sessions on one farm are separate
// displays — windows created in one are invisible to the other, while
// two connections attaching the same name share a display.
func TestFarmSessionsAreIsolated(t *testing.T) {
	f := NewFarm(FarmOptions{Width: 320, Height: 200})
	defer f.Close()

	a, err := xclient.OpenSession(f.ConnectPipe(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := xclient.OpenSession(f.ConnectPipe(), "bob")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	a.CreateWindow(a.Root, 10, 10, 100, 80, 1, xclient.WindowAttributes{})
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	at, err := a.QueryTree(a.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(at.Children) != 1 {
		t.Fatalf("alice sees %d root children, want 1", len(at.Children))
	}
	bt, err := b.QueryTree(b.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bt.Children) != 0 {
		t.Fatalf("bob sees %d root children, want 0 (tenant leakage)", len(bt.Children))
	}

	// A second connection to "alice" shares her display.
	a2, err := xclient.OpenSession(f.ConnectPipe(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	at2, err := a2.QueryTree(a2.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(at2.Children) != 1 {
		t.Fatalf("alice's second connection sees %d root children, want 1", len(at2.Children))
	}
	if n := f.SessionCount(); n != 2 {
		t.Fatalf("SessionCount = %d, want 2", n)
	}
	if got := f.Metrics().Counter("farm.admissions").Value(); got != 2 {
		t.Fatalf("farm.admissions = %d, want 2", got)
	}
}

// TestFarmAdmissionCap: the cap bounds live sessions; a refused client
// gets a clean error naming the cap, not a hang or a bare close, and
// eviction frees the slot.
func TestFarmAdmissionCap(t *testing.T) {
	f := NewFarm(FarmOptions{Width: 160, Height: 120, MaxSessions: 2})
	defer f.Close()

	a, err := xclient.OpenSession(f.ConnectPipe(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := xclient.OpenSession(f.ConnectPipe(), "b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if _, err := xclient.OpenSession(f.ConnectPipe(), "c"); err == nil {
		t.Fatal("third session admitted past cap 2")
	} else if !strings.Contains(err.Error(), "session cap 2") {
		t.Fatalf("refusal error does not name the cap: %v", err)
	}
	if got := f.Metrics().Counter("farm.rejections").Value(); got != 1 {
		t.Fatalf("farm.rejections = %d, want 1", got)
	}

	// Disconnecting does not retire a session — eviction does.
	b.Close()
	if !f.Evict("b") {
		t.Fatal("Evict(b) found no session")
	}
	c, err := xclient.OpenSession(f.ConnectPipe(), "c")
	if err != nil {
		t.Fatalf("session c not admitted after eviction freed a slot: %v", err)
	}
	c.Close()
}

// TestFarmQuotaDenialIsClean: exceeding each quota axis yields an X
// error on the ordinary async error path and leaves the connection
// fully usable — and freeing the resource returns the headroom.
func TestFarmQuotaDenialIsClean(t *testing.T) {
	f := NewFarm(FarmOptions{
		Width: 320, Height: 200,
		Quota: Quota{MaxWindows: 2, MaxPixmapBytes: 64 * 64 * 4, MaxGCs: 1},
	})
	defer f.Close()

	d, err := xclient.OpenSession(f.ConnectPipe(), "tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var mu sync.Mutex
	var errs []string
	d.ErrorHandler = func(msg string) {
		mu.Lock()
		errs = append(errs, msg)
		mu.Unlock()
	}
	takeErr := func() string {
		mu.Lock()
		defer mu.Unlock()
		if len(errs) == 0 {
			return ""
		}
		msg := errs[len(errs)-1]
		errs = nil
		return msg
	}
	expectDenied := func(what, resource string) {
		t.Helper()
		if err := d.Sync(); err != nil {
			t.Fatalf("%s: connection poisoned by quota denial: %v", what, err)
		}
		msg := takeErr()
		if !strings.Contains(msg, "quota exceeded") || !strings.Contains(msg, resource) {
			t.Fatalf("%s: want a %q quota error, got %q", what, resource, msg)
		}
	}

	// Windows: 2 allowed, 3rd denied; destroying one restores headroom.
	w1 := d.CreateWindow(d.Root, 0, 0, 50, 50, 0, xclient.WindowAttributes{})
	d.CreateWindow(d.Root, 0, 0, 50, 50, 0, xclient.WindowAttributes{})
	d.CreateWindow(d.Root, 0, 0, 50, 50, 0, xclient.WindowAttributes{})
	expectDenied("third window", "windows")
	d.DestroyWindow(w1)
	d.CreateWindow(d.Root, 0, 0, 50, 50, 0, xclient.WindowAttributes{})
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if msg := takeErr(); msg != "" {
		t.Fatalf("window create after destroy should fit the quota, got %q", msg)
	}

	// Pixmap bytes: one 64×64 fills the budget exactly; any more is
	// denied until it is freed.
	p1 := d.CreatePixmap(64, 64)
	d.CreatePixmap(8, 8)
	expectDenied("second pixmap", "pixmap_bytes")
	d.FreePixmap(p1)
	d.CreatePixmap(8, 8)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if msg := takeErr(); msg != "" {
		t.Fatalf("small pixmap after free should fit the quota, got %q", msg)
	}

	// GCs.
	g1 := d.CreateGC(xclient.GCValues{})
	d.CreateGC(xclient.GCValues{})
	expectDenied("second gc", "gcs")
	d.FreeGC(g1)
	d.CreateGC(xclient.GCValues{})
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if msg := takeErr(); msg != "" {
		t.Fatalf("gc after free should fit the quota, got %q", msg)
	}

	sess, ok := f.Lookup("tenant")
	if !ok {
		t.Fatal("session vanished")
	}
	if got := sess.Server().Metrics().Counter("quota.denied.windows").Value(); got != 1 {
		t.Fatalf("quota.denied.windows = %d, want 1", got)
	}
	if got := f.Metrics().Counter("quota.denied.pixmap_bytes").Value(); got != 1 {
		t.Fatalf("rolled-up quota.denied.pixmap_bytes = %d, want 1", got)
	}

	// Teardown reconciles to zero.
	d.Close()
	waitQuotaZero(t, sess.Server())
}

// TestFarmQuotaReconcilesAcrossNestedOwnership: the PR 5 regression
// shape, now with quota accounting on top — client B's windows nested
// inside client A's tree must release exactly B's reservations when B
// disconnects, and everything must reach zero when A follows.
func TestFarmQuotaReconcilesAcrossNestedOwnership(t *testing.T) {
	f := NewFarm(FarmOptions{Width: 400, Height: 300})
	defer f.Close()

	a, err := xclient.OpenSession(f.ConnectPipe(), "s")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := xclient.OpenSession(f.ConnectPipe(), "s")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	aw := a.CreateWindow(a.Root, 10, 10, 200, 150, 1, xclient.WindowAttributes{})
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	// B nests a chain inside A's window and owns resources of every kind.
	bw1 := b.CreateWindow(aw, 5, 5, 80, 60, 0, xclient.WindowAttributes{})
	b.CreateWindow(bw1, 2, 2, 40, 30, 0, xclient.WindowAttributes{})
	b.CreatePixmap(32, 32)
	b.CreateGC(xclient.GCValues{})
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}

	sess, _ := f.Lookup("s")
	srv := sess.Server()
	if w, pb, g := srv.QuotaUsage(); w != 3 || pb != 32*32*4 || g != 1 {
		t.Fatalf("usage before disconnects: windows=%d pixmapBytes=%d gcs=%d", w, pb, g)
	}

	b.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		w, pb, g := srv.QuotaUsage()
		if w == 1 && pb == 0 && g == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after B left: windows=%d pixmapBytes=%d gcs=%d, want 1/0/0", w, pb, g)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// A is untouched and fully usable.
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	a.Close()
	waitQuotaZero(t, srv)
}

// TestFarmIdleEviction: a session nobody speaks to is retired by the
// sweeper; reattaching the same name builds a fresh display.
func TestFarmIdleEviction(t *testing.T) {
	f := NewFarm(FarmOptions{
		Width: 160, Height: 120,
		IdleEvict: 50 * time.Millisecond,
	})
	defer f.Close()

	d, err := xclient.OpenSession(f.ConnectPipe(), "idler")
	if err != nil {
		t.Fatal(err)
	}
	d.CreateWindow(d.Root, 0, 0, 50, 50, 0, xclient.WindowAttributes{})
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}

	// Go idle (the open connection does not pin the session) and wait
	// for the sweeper.
	deadline := time.Now().Add(5 * time.Second)
	for f.SessionCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle session not evicted; count=%d", f.SessionCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := f.Metrics().Counter("farm.evictions").Value(); got < 1 {
		t.Fatalf("farm.evictions = %d, want >= 1", got)
	}
	d.Close()

	// Reattach: a fresh session with an empty tree.
	d2, err := xclient.OpenSession(f.ConnectPipe(), "idler")
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	tree, err := d2.QueryTree(d2.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Children) != 0 {
		t.Fatalf("reattached session inherited %d windows from the evicted one", len(tree.Children))
	}
	if got := f.Metrics().Counter("farm.admissions").Value(); got != 2 {
		t.Fatalf("farm.admissions = %d, want 2", got)
	}
}

// TestFarmSweepRacesInflightRequests: an aggressive sweeper (everything
// is "idle" almost immediately) runs against clients that keep issuing
// requests and reconnecting. The race must resolve cleanly every time:
// no panic, no hang, clients see either success or connection loss, and
// every evicted session's quota reconciles to zero.
func TestFarmSweepRacesInflightRequests(t *testing.T) {
	f := NewFarm(FarmOptions{
		Width: 160, Height: 120,
		IdleEvict: time.Nanosecond,
	})
	defer f.Close()

	var wg sync.WaitGroup
	var servers sync.Map // *Server -> true, every session server ever admitted
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := []string{"w", "x", "y", "z"}[g]
			for attempt := 0; attempt < 8; attempt++ {
				d, err := xclient.OpenSession(f.ConnectPipe(), name)
				if err != nil {
					continue // raced the sweeper mid-handshake; try again
				}
				if sess, ok := f.Lookup(name); ok {
					servers.Store(sess.Server(), true)
				}
				for i := 0; i < 50; i++ {
					d.CreateWindow(d.Root, 0, 0, 20, 20, 0, xclient.WindowAttributes{})
					if err := d.Sync(); err != nil {
						break // evicted mid-flight: connection severed, cleanly
					}
				}
				d.Close()
			}
		}(g)
	}
	wg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	servers.Range(func(k, _ any) bool {
		srv := k.(*Server)
		for {
			w, pb, g := srv.QuotaUsage()
			if w == 0 && pb == 0 && g == 0 {
				return true
			}
			if w < 0 || pb < 0 || g < 0 {
				t.Errorf("negative quota usage after sweep race: %d/%d/%d", w, pb, g)
				return false
			}
			if time.Now().After(deadline) {
				t.Errorf("quota not reconciled after sweep race: %d/%d/%d", w, pb, g)
				return false
			}
			time.Sleep(2 * time.Millisecond)
		}
	})
}

// TestFarmEvictionCrossTenantIsolation: evicting one tenant — including
// one whose clients hold windows nested inside each other's trees —
// must leave every other tenant's display byte-for-byte intact and
// responsive.
func TestFarmEvictionCrossTenantIsolation(t *testing.T) {
	f := NewFarm(FarmOptions{Width: 320, Height: 200})
	defer f.Close()

	// Victim session: two connections with cross-nested ownership (the
	// PR 5 regression shape).
	v1, err := xclient.OpenSession(f.ConnectPipe(), "victim")
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Close()
	v2, err := xclient.OpenSession(f.ConnectPipe(), "victim")
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	vw := v1.CreateWindow(v1.Root, 10, 10, 100, 80, 0, xclient.WindowAttributes{})
	if err := v1.Sync(); err != nil {
		t.Fatal(err)
	}
	v2.CreateWindow(vw, 5, 5, 40, 30, 0, xclient.WindowAttributes{})
	if err := v2.Sync(); err != nil {
		t.Fatal(err)
	}

	// Survivor session with state worth protecting.
	s, err := xclient.OpenSession(f.ConnectPipe(), "survivor")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.CreateWindow(s.Root, 0, 0, 60, 40, 0, xclient.WindowAttributes{})
	s.CreateWindow(s.Root, 70, 0, 60, 40, 0, xclient.WindowAttributes{})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	vsess, _ := f.Lookup("victim")
	if !f.Evict("victim") {
		t.Fatal("Evict(victim) found no session")
	}
	waitQuotaZero(t, vsess.Server())

	// The survivor never notices.
	if err := s.Sync(); err != nil {
		t.Fatalf("survivor connection broken by eviction: %v", err)
	}
	tree, err := s.QueryTree(s.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Children) != 2 {
		t.Fatalf("survivor has %d root children after eviction, want 2", len(tree.Children))
	}
	if n := f.SessionCount(); n != 1 {
		t.Fatalf("SessionCount = %d, want 1", n)
	}
}

// TestAttachSessionAgainstPlainServer: a session-aware client attaching
// a plain single-display server works transparently — the attach frame
// is consumed without a sequence number, so round trips stay aligned.
func TestAttachSessionAgainstPlainServer(t *testing.T) {
	s := New(320, 200)
	defer s.Close()
	d, err := xclient.OpenSession(s.ConnectPipe(), "ignored")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 3; i++ {
		if err := d.Sync(); err != nil {
			t.Fatalf("round trip %d after attach-skip: %v", i, err)
		}
	}
	if _, err := d.InternAtom("ALIGNED"); err != nil {
		t.Fatalf("reply routing misaligned after attach-skip: %v", err)
	}
}

// TestFarmRefusesNonAttachFirstFrame: a client that speaks a normal
// request first, with no attach handshake, is refused at once with the
// sequence-0 error frame, and no session is created for it. Raw wire
// frames: xclient.Open reads the setup block before sending anything,
// and a farm needs the client to speak first.
func TestFarmRefusesNonAttachFirstFrame(t *testing.T) {
	f := NewFarm(FarmOptions{Width: 160, Height: 120})
	defer f.Close()
	nc := f.ConnectPipe()
	defer nc.Close()

	// One write, so the farm reads all of it before it hangs up.
	var frame xproto.Writer
	frame.RequestFrame(&xproto.PingReq{})
	done := make(chan error, 1)
	go func() {
		_, err := nc.Write(frame.Bytes())
		done <- err
	}()
	kind, payload, err := xproto.ReadServerFrame(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	r := xproto.NewReader(payload)
	if seq, msg := r.U64(), r.String(); kind != xproto.KindError || seq != 0 || !strings.Contains(msg, "want AttachSession") {
		t.Fatalf("first-frame Ping answered with kind=%d seq=%d %q, want the sequence-0 refusal", kind, seq, msg)
	}
	if _, ok := f.Lookup(""); ok {
		t.Fatal("a refused client created the default session")
	}
}

// TestParseQuota covers the -quota flag syntax.
func TestParseQuota(t *testing.T) {
	q, err := ParseQuota("windows=256,pixmap-bytes=16m,gcs=128")
	if err != nil {
		t.Fatal(err)
	}
	if q.MaxWindows != 256 || q.MaxPixmapBytes != 16<<20 || q.MaxGCs != 128 {
		t.Fatalf("parsed %+v", q)
	}
	if q, err := ParseQuota(" pixmap-bytes=4K "); err != nil || q.MaxPixmapBytes != 4<<10 {
		t.Fatalf("suffix K: %+v, %v", q, err)
	}
	if q, err := ParseQuota(""); err != nil || q != (Quota{}) {
		t.Fatalf("empty spec: %+v, %v", q, err)
	}
	for _, bad := range []string{"windows", "disks=3", "windows=-1", "windows=x", "pixmap-bytes=9999999999g"} {
		if _, err := ParseQuota(bad); err == nil {
			t.Errorf("ParseQuota(%q) accepted", bad)
		}
	}
}
