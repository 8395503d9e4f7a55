package xserver

import (
	"io"
	"testing"
	"time"

	"repro/internal/obs/slo"
	"repro/internal/xclient"
	"repro/internal/xproto"
)

// TestStalledPeerSevered: a client that connects and then never reads
// its end of the pipe cannot wedge the server. The writer's deadline
// fires, the "stalled" counter increments, and the connection is
// severed.
func TestStalledPeerSevered(t *testing.T) {
	s := New(200, 200)
	defer s.Close()
	s.SetWriteTimeout(50 * time.Millisecond)

	// The setup block is the first frame in the output buffer; with the
	// peer never reading, the writer blocks on a synchronous pipe until
	// the deadline severs it.
	nc := s.ConnectPipe()
	defer nc.Close()

	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Counter("stalled").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled peer never severed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The server stays fully usable for well-behaved clients.
	s.mu.Lock()
	live := len(s.conns)
	s.mu.Unlock()
	_ = live // the stalled conn unregisters once its read loop exits
	buf := make([]byte, 16)
	if _, err := nc.Read(buf); err == nil {
		// The severed connection must eventually error on the client end.
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		for {
			if _, err := nc.Read(buf); err != nil {
				break
			}
		}
	}
}

// TestWriteTimeoutDisabled: SetWriteTimeout(0) restores unbounded
// blocking semantics — the connection is not severed just because the
// peer reads slowly.
func TestWriteTimeoutDisabled(t *testing.T) {
	s := New(200, 200)
	defer s.Close()
	s.SetWriteTimeout(0)

	nc := s.ConnectPipe()
	defer nc.Close()

	// Read slowly: wait well past any default deadline, then drain.
	time.Sleep(100 * time.Millisecond)
	buf := make([]byte, 4096)
	if _, err := nc.Read(buf); err != nil {
		t.Fatalf("slow reader severed with timeout disabled: %v", err)
	}
	if got := s.Metrics().Counter("stalled").Value(); got != 0 {
		t.Fatalf("stalled counter = %d with timeout disabled", got)
	}
}

// TestOwnEventsWaitForSlowReader: the events a client's own requests
// raise for it are never dropped. A client that stops reading is not
// served until its output drains, as X does, so once it reads again
// every event arrives.
func TestOwnEventsWaitForSlowReader(t *testing.T) {
	s := New(200, 200)
	defer s.Close()
	s.SetWriteTimeout(0)

	nc := s.ConnectPipe()
	defer nc.Close()
	_, payload, err := xproto.ReadServerFrame(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var setup xproto.SetupReply
	setup.Decode(xproto.NewReader(payload))
	win := xproto.ID(setup.ResourceIDBase + 1)
	var batch xproto.Writer
	batch.RequestFrame(&xproto.CreateWindowReq{
		Wid: win, Parent: s.Root(), Width: 10, Height: 10, EventMask: xproto.PropertyChangeMask,
	})
	const changes = 6000
	for i := 0; i < changes; i++ {
		batch.RequestFrame(&xproto.ChangePropertyReq{
			Window: win, Property: xproto.AtomWMName, Type: xproto.AtomString, Data: []byte{byte(i)},
		})
	}
	go nc.Write(batch.Bytes()) // returns once the server has read every request
	time.Sleep(500 * time.Millisecond)

	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := 0
	for got < changes {
		kind, payload, err := xproto.ReadServerFrame(nc, nil)
		if err != nil {
			t.Fatalf("after %d of %d PropertyNotify events: %v (server dropped %d)",
				got, changes, err, s.Metrics().Counter("dropped").Value())
		}
		var ev xproto.Event
		ev.Decode(xproto.NewReader(payload))
		if kind == xproto.KindEvent && ev.Type == xproto.PropertyNotify && ev.Window == win {
			got++
		}
	}
	if n := s.Metrics().Counter("dropped").Value(); n != 0 {
		t.Fatalf("server dropped %d of the client's own events", n)
	}
}

// TestDroppedEventsReachServerRegistry: events another connection
// raises for a peer that stopped draining its output buffer are
// dropped and counted on the server registry, so Metrics(), /metrics
// and the SLO error budget see them.
func TestDroppedEventsReachServerRegistry(t *testing.T) {
	s := New(200, 200)
	defer s.Close()
	s.SetWriteTimeout(0)

	// Connection A reads one byte of its setup block, so its writer has
	// taken the block and is blocked writing the rest. It selects
	// property events on the root and never reads again: every event
	// from now on waits in its output buffer or is dropped.
	a := s.ConnectPipe()
	defer a.Close()
	if _, err := io.ReadFull(a, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	selectProps := &xproto.ChangeWindowAttributesReq{
		Window: s.Root(), Mask: xproto.AttrEventMask, EventMask: xproto.PropertyChangeMask,
	}
	var frame xproto.Writer
	frame.RequestFrame(selectProps)
	if _, err := a.Write(frame.Bytes()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		selected := len(s.root.masks) == 1
		s.mu.Unlock()
		if selected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connection A never selected property events on the root")
		}
		time.Sleep(time.Millisecond)
	}

	// Connection B floods A: this server does not propagate substructure
	// events, so root property changes are what reach A.
	b, err := xclient.Open(s.ConnectPipe())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	prop, err := b.InternAtom("FLOOD")
	if err != nil {
		t.Fatal(err)
	}
	const changes = 6000
	for i := 0; i < changes; i++ {
		b.ChangeProperty(s.Root(), prop, xproto.AtomString, []byte{byte(i)})
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}

	const want = changes - outQueueSlots
	if got := s.Metrics().Counter("dropped").Value(); got != want {
		t.Fatalf("server registry counted %d dropped events, want %d", got, want)
	}
	budget := slo.Build(slo.Sources{Server: s.Metrics()}).ErrorBudget
	if got := budget.ByCounter["dropped"]; got != want {
		t.Fatalf("SLO error budget counted %d dropped events, want %d", got, want)
	}
}

// TestStalledReaderDoesNotStallOthers: a client that floods
// reply-bearing requests and never reads fills its output buffer, and
// its request loop then waits for room up to the write timeout.
// It waits with the display lock released, so another client's
// requests finish promptly. The flood is of QueryTree, whose handler
// walks the window tree, and of Ping, whose handler touches nothing.
func TestStalledReaderDoesNotStallOthers(t *testing.T) {
	for _, flood := range []xproto.Request{
		&xproto.QueryTreeReq{Window: 1},
		&xproto.PingReq{},
	} {
		t.Run(xproto.OpName(flood.Op()), func(t *testing.T) {
			s := New(200, 200)
			defer s.Close()
			s.SetWriteTimeout(3 * time.Second)
			d, err := xclient.Open(s.ConnectPipe())
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			nc := s.ConnectPipe()
			defer nc.Close()
			if _, _, err := xproto.ReadServerFrame(nc, nil); err != nil {
				t.Fatal(err)
			}
			var batch xproto.Writer
			for i := 0; i < 6000; i++ {
				batch.RequestFrame(flood)
			}
			go nc.Write(batch.Bytes()) // returns once the server severs or closes the pipe

			// The flooder is stuck once its buffer is full and its request
			// count stops moving.
			requests := s.Metrics().Counter("requests")
			deadline := time.Now().Add(5 * time.Second)
			for last := uint64(0); ; {
				time.Sleep(20 * time.Millisecond)
				n := requests.Value()
				if n > outQueueSlots && n == last {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("flood never stalled: %d requests served", n)
				}
				last = n
			}

			begin := time.Now()
			w := d.CreateWindow(d.Root, 0, 0, 10, 10, 0, xclient.WindowAttributes{})
			d.MapWindow(w)
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
			if took := time.Since(begin); took > 500*time.Millisecond {
				t.Fatalf("another client's CreateWindow+MapWindow+Sync took %v behind a stalled reader, want < 500ms", took)
			}
		})
	}
}
