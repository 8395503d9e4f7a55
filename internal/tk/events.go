package tk

import (
	"bufio"
	"container/heap"
	"io"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/xproto"
)

// The Tk dispatcher supports X events, file events, timer events, and
// when-idle events (§3.2). Timers are a heap; idle handlers a FIFO; file
// events arrive via Post (any goroutine may post work into the loop).

type timerEntry struct {
	when  time.Time
	fn    func()
	id    int // also orders timers due at the same time
	index int // the entry's place in the heap, which Swap and Push keep; -1 once out
}

type timerQueue struct {
	entries []*timerEntry
	nextID  int
	byID    map[int]*timerEntry // the timers CreateTimerHandler made
}

func newTimerQueue() *timerQueue {
	return &timerQueue{byID: make(map[int]*timerEntry)}
}

func (q *timerQueue) Len() int { return len(q.entries) }
func (q *timerQueue) Less(i, j int) bool {
	if q.entries[i].when.Equal(q.entries[j].when) {
		return q.entries[i].id < q.entries[j].id
	}
	return q.entries[i].when.Before(q.entries[j].when)
}
func (q *timerQueue) Swap(i, j int) {
	q.entries[i], q.entries[j] = q.entries[j], q.entries[i]
	q.entries[i].index, q.entries[j].index = i, j
}
func (q *timerQueue) Push(x any) {
	e := x.(*timerEntry)
	e.index = len(q.entries)
	q.entries = append(q.entries, e)
}
func (q *timerQueue) Pop() any {
	n := len(q.entries) - 1
	e := q.entries[n]
	q.entries[n], e.index = nil, -1 // the array must not keep the handler alive
	q.entries = q.entries[:n]
	return e
}

// CreateTimerHandler schedules fn to run once after d, returning a handle
// usable with DeleteTimerHandler.
func (app *App) CreateTimerHandler(d time.Duration, fn func()) int {
	e := app.addTimer(d, fn)
	app.timers.byID[e.id] = e
	return e.id
}

// DeleteTimerHandler cancels a pending timer. A handle whose timer has
// fired or been cancelled is ignored.
func (app *App) DeleteTimerHandler(id int) {
	if e, ok := app.timers.byID[id]; ok {
		app.removeTimer(e)
	}
}

// addTimer puts a timer that runs fn after d in the heap. A wait's
// deadline gets no handle, so "after cancel" cannot end the wait.
func (app *App) addTimer(d time.Duration, fn func()) *timerEntry {
	q := app.timers
	q.nextID++
	e := &timerEntry{when: time.Now().Add(d), fn: fn, id: q.nextID}
	heap.Push(q, e)
	app.timersDepth.Set(int64(q.Len()))
	return e
}

// removeTimer takes e out of the heap at once, as Tk_DeleteTimerHandler
// unlinks a timer, unless it has fired.
func (app *App) removeTimer(e *timerEntry) {
	q := app.timers
	if e.index >= 0 {
		heap.Remove(q, e.index)
		app.timersDepth.Set(int64(q.Len()))
	}
	delete(q.byID, e.id)
}

// DoWhenIdle queues fn to run when no other events are pending (§3.2's
// when-idle handlers).
func (app *App) DoWhenIdle(fn func()) {
	app.idle = append(app.idle, fn)
	app.idleDepth.Set(int64(len(app.idle)))
}

// Post delivers fn into the event loop from any goroutine: the toolkit's
// file-event mechanism (wish posts lines read from stdin this way).
func (app *App) Post(fn func()) {
	app.posted <- fn
}

// CreateFileHandler is §3.2's file-event mechanism: fn runs inside the
// event loop with each line read from r; atEOF (optional) runs when the
// source is exhausted. A goroutine owns the blocking reads; the handler
// itself always executes in the event loop, so it may touch windows and
// the interpreter freely. wish uses this for its stdin command loop.
func (app *App) CreateFileHandler(r io.Reader, fn func(line string), atEOF func()) {
	go func() {
		scanner := bufio.NewScanner(r)
		scanner.Buffer(make([]byte, 1<<20), 1<<20)
		for scanner.Scan() {
			line := scanner.Text()
			app.Post(func() { fn(line) })
		}
		if atEOF != nil {
			app.Post(atEOF)
		}
	}()
}

// runDueTimers fires all expired timers; it reports whether any ran.
func (app *App) runDueTimers() bool {
	ran := false
	now := time.Now()
	q := app.timers
	for q.Len() > 0 && !q.entries[0].when.After(now) {
		e := heap.Pop(q).(*timerEntry)
		delete(q.byID, e.id)
		e.fn()
		ran = true
	}
	if ran {
		app.timersDepth.Set(int64(q.Len()))
	}
	return ran
}

// RunIdle runs the idle handlers queued before it was called, but not
// ones they queue, and reports whether any ran: Tk_DoOneEvent with
// TK_IDLE_EVENTS. An idle handler may call it, as Tk's MapFrame does, to
// let the handlers queued behind it run first.
func (app *App) RunIdle() bool {
	end := app.idleRan + len(app.idle)
	if app.idleRan == end {
		return false
	}
	for app.idleRan < end {
		fn := app.idle[0]
		app.idle[0] = nil
		app.idle = app.idle[1:]
		app.idleRan++
		app.idleDepth.Set(int64(len(app.idle)))
		fn() // may queue handlers, or run those behind it
	}
	return true
}

// DoOneEvent processes one round of events. With wait=false it returns
// immediately when nothing is pending. It reports whether any work was
// done. Buffered requests are flushed only when it is about to block,
// as Xlib flushes only before it waits for the server.
func (app *App) DoOneEvent(wait bool) bool {
	// 1. Already-queued X events and posted work. The display's queue
	// holds every event the read loop has taken off the wire, so after a
	// Sync this poll sees every event that preceded the reply.
	if dispatched, lost := app.dispatchQueued(); dispatched || lost {
		return dispatched
	}
	select {
	case fn := <-app.posted:
		fn()
		return true
	default:
	}
	// 2. Expired timers.
	if app.runDueTimers() {
		return true
	}
	// 3. Idle handlers.
	if app.RunIdle() {
		return true
	}
	if !wait {
		return false
	}
	// 4. Block for the next source, with every request on the wire.
	app.Disp.Flush()
	var timerCh <-chan time.Time
	if app.timers.Len() > 0 {
		d := time.Until(app.timers.entries[0].when)
		if d < 0 {
			d = 0
		}
		t := time.NewTimer(d)
		defer t.Stop()
		timerCh = t.C
	}
	select {
	case <-app.Disp.Wake():
		// The token may announce an event step 1 already took; the
		// caller's loop comes back here.
		dispatched, _ := app.dispatchQueued()
		return dispatched
	case fn := <-app.posted:
		fn()
		return true
	case <-timerCh:
		return app.runDueTimers()
	}
}

// wait runs DoOneEvent(true), as Tk's waits run Tk_DoOneEvent(0), until
// done reports true, the application quits or a timer handler of d
// fires, and reports whether done held.
func (app *App) wait(d time.Duration, done func() bool) bool {
	deadline := app.addTimer(d, func() {})
	defer app.removeTimer(deadline)
	for !done() {
		if deadline.index < 0 || app.Quitting() {
			return false
		}
		app.DoOneEvent(true)
	}
	return true
}

// dispatchQueued dispatches the oldest event in the display's queue and
// reports whether there was one. With that queue empty it dispatches the
// ConfigureNotify MakeExist owes a window, carrying the window's current
// geometry: the server sent none, as the window did not exist when its
// geometry changed. With both empty on a lost connection it reports lost
// and ends the main loop.
func (app *App) dispatchQueued() (dispatched, lost bool) {
	ev, ok, lost := app.Disp.PollEvent()
	if !ok && len(app.configNotify) > 0 {
		w := app.configNotify[0]
		app.configNotify[0] = nil // the queue must not keep a destroyed window alive
		app.configNotify = app.configNotify[1:]
		if !w.Destroyed {
			app.DispatchEvent(&xproto.Event{
				Type: xproto.ConfigureNotify, Window: w.XID,
				X: int16(w.X), Y: int16(w.Y), Width: uint16(w.Width), Height: uint16(w.Height),
				BorderWidth: uint16(w.BorderWidth),
			})
		}
		return true, false
	}
	if !ok {
		if lost {
			app.quitFlag.Store(true)
		}
		return false, lost
	}
	// DispatchEvent keeps its argument (a SelectionNotify is stored), so
	// the copy escapes; made here, it costs a heap event only when there
	// is one.
	e := ev
	app.DispatchEvent(&e)
	return true, false
}

// MainLoop runs the dispatcher until Quit or destruction of the main
// window.
func (app *App) MainLoop() {
	for !app.Quitting() {
		app.DoOneEvent(true)
	}
	app.Disp.Flush()
}

// StartServing pumps the application's event loop in a background
// goroutine, blocking (not spinning) between events. It exists for tests,
// benchmarks and examples that run several applications in one process —
// each real application would run MainLoop in its own process. The
// returned function stops the pump and waits for it to finish; the
// application remains usable afterwards.
func (app *App) StartServing() (stop func()) {
	ch := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-ch:
				return
			default:
			}
			if app.Quitting() {
				return
			}
			app.DoOneEvent(true)
		}
	}()
	return func() {
		close(ch)
		app.Post(func() {}) // wake the blocked DoOneEvent
		<-done
	}
}

// Update processes all pending events, timers and idle handlers without
// waiting: the "update" Tcl command. Each round drains the queues first
// and then syncs with the server once, so the round's requests, idle
// redraws included, travel in one flush and cost one round trip. The
// sync makes every event caused by those requests arrive before Update
// decides it is done; it loops only if the sync brought work. This is
// Tk's order: its update calls XSync after the drain.
func (app *App) Update() {
	for {
		for app.DoOneEvent(false) {
			if app.Quitting() {
				return
			}
		}
		if err := app.Disp.Sync(); err != nil || !app.DoOneEvent(false) {
			return
		}
	}
}

// UpdateIdleTasks runs only the idle queue (update idletasks): display
// refresh without processing input.
func (app *App) UpdateIdleTasks() {
	for app.RunIdle() {
	}
	app.Disp.Flush()
}

// DispatchEvent routes one X event: structure bookkeeping, C-level
// handlers, then Tcl bindings.
func (app *App) DispatchEvent(ev *xproto.Event) {
	app.eventsCtr.Inc()
	begin := time.Now()
	defer func() { app.dispatchHist.Observe(time.Since(begin)) }()
	if tr := app.Spans; tr != nil {
		// Events have no protocol sequence number on this side, so the
		// toolkit samples on its own dispatch counter; the span's start
		// time places it on the shared timeline next to whatever requests
		// the handlers issue.
		app.evSpanSeq++
		if tr.Sampled(app.evSpanSeq) {
			seq := app.evSpanSeq
			op := xproto.EventTypeName(int(ev.Type))
			defer func() {
				tr.Record(trace.Span{
					Seq: seq, Name: "tk.event", Side: "tk", Op: op,
					Start: begin.UnixNano(), Dur: int64(time.Since(begin)),
				})
				app.spansCtr.Inc()
			}()
		}
	}
	w, ok := app.xidMap[ev.Window]
	if !ok {
		// Events for the comm window drive the send protocol.
		if ev.Window == app.commWin {
			app.handleCommEvent(ev)
		}
		return
	}
	// Selection protocol events are handled by the intrinsics (§3.6).
	switch ev.Type {
	case xproto.SelectionRequest:
		app.handleSelectionRequest(ev)
		return
	case xproto.SelectionClear:
		app.handleSelectionClear(ev)
		return
	case xproto.SelectionNotify:
		app.sel().notify = ev
		return
	}

	// Keep the structure cache current (§3.3).
	switch ev.Type {
	case xproto.ConfigureNotify:
		// The toolkit owns the geometry of internal windows: resizeWindow
		// writes their cache, as Tk_MoveResizeWindow does, so a notify
		// for an older configure must not overwrite it. Only a
		// top-level's geometry can change outside the toolkit.
		if !w.TopLevel {
			break
		}
		sizeChanged := int(ev.Width) != w.Width || int(ev.Height) != w.Height
		w.X, w.Y = int(ev.X), int(ev.Y)
		w.Width, w.Height = int(ev.Width), int(ev.Height)
		if sizeChanged {
			if packer := app.packerFor(w); packer != nil {
				packer.scheduleRepack(w)
			}
		}
	case xproto.MapNotify:
		w.Mapped = true
	case xproto.UnmapNotify:
		w.Mapped = false
	case xproto.DestroyNotify:
		// Server-initiated destruction (e.g. another client); tear down
		// our bookkeeping if we did not initiate it.
		if !w.Destroyed {
			app.DestroyWindow(w)
			return
		}
	}

	// The window's recent device events, this one included, are what a
	// multi-event sequence matches, whether a binding of the window runs
	// or one of the items or tags a widget's handler passes to Trigger.
	if historyTracked(ev.Type) {
		w.history = append(w.history, *ev)
		if len(w.history) > historyLimit {
			w.history = w.history[len(w.history)-historyLimit:]
		}
	}

	// C-level handlers.
	mask := xproto.EventMaskFor(int(ev.Type))
	if ev.Type == xproto.MotionNotify && ev.State&(xproto.Button1Mask|
		xproto.Button2Mask|xproto.Button3Mask|xproto.Button4Mask|xproto.Button5Mask) != 0 {
		mask |= xproto.ButtonMotionMask
	}
	for _, h := range w.handlers {
		if h.mask&mask != 0 || mask == 0 {
			h.fn(ev)
			if w.Destroyed {
				return
			}
		}
	}

	// Tcl bindings.
	app.bindings.Trigger(w, ev, w.Path)
}
