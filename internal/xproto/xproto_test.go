package xproto

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriterReaderPrimitives(t *testing.T) {
	var w Writer
	w.PutU8(0xab)
	w.PutU16(0x1234)
	w.PutU32(0xdeadbeef)
	w.PutU64(0x0123456789abcdef)
	w.PutI16(-42)
	w.PutI32(-100000)
	w.PutBool(true)
	w.PutString("hello")
	w.PutBytes([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	if r.U8() != 0xab || r.U16() != 0x1234 || r.U32() != 0xdeadbeef ||
		r.U64() != 0x0123456789abcdef || r.I16() != -42 || r.I32() != -100000 ||
		!r.Bool() || r.String() != "hello" {
		t.Fatal("primitive round trip failed")
	}
	if !bytes.Equal(r.ByteSlice(), []byte{1, 2, 3}) {
		t.Fatal("bytes round trip failed")
	}
	if r.Err() != nil {
		t.Fatalf("unexpected error: %v", r.Err())
	}
}

func TestReaderShortMessage(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U32()
	if r.Err() == nil {
		t.Fatal("short read should set error")
	}
	// Further reads return zero without panicking.
	if r.U8() != 0 || r.String() != "" {
		t.Fatal("reads after error should be zero")
	}
}

func TestFraming(t *testing.T) {
	var w Writer
	w.RequestFrame(&MapWindowReq{Window: 7})
	want := []byte{byte(OpMapWindow >> 8), byte(OpMapWindow), 0, 0, 0, 4, 0, 0, 0, 7}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("request frame bytes %x, want %x", w.Bytes(), want)
	}
	op, payload, err := ReadRequestFrame(bytes.NewReader(w.Bytes()), nil)
	if err != nil || op != OpMapWindow || !bytes.Equal(payload, want[6:]) {
		t.Fatalf("request frame: %d %x %v", op, payload, err)
	}
	w.Reset()
	w.ServerFrame(KindEvent, func(w *Writer) { copy(w.AppendRaw(2), "ev") })
	if want := []byte{KindEvent, 0, 0, 0, 2, 'e', 'v'}; !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("server frame bytes %x, want %x", w.Bytes(), want)
	}
	kind, payload, err := ReadServerFrame(bytes.NewReader(w.Bytes()), nil)
	if err != nil || kind != KindEvent || string(payload) != "ev" {
		t.Fatalf("server frame: %d %q %v", kind, payload, err)
	}
}

// TestFramePathsAllocateNothing: once an output buffer and a read
// scratch buffer have grown, appending a frame to the one and reading a
// frame into the other allocate nothing, in either direction.
func TestFramePathsAllocateNothing(t *testing.T) {
	req := &PolyFillRectangleReq{Drawable: 3, Gc: 4, Rects: []Rect{{X: 1, Y: 2, W: 3, H: 4}}}
	ev := &Event{Type: Expose, Window: 5, Width: 10, Height: 20, Data: "x"}
	var reqFrame, evFrame, out Writer
	reqFrame.RequestFrame(req)
	evFrame.ServerFrame(KindEvent, ev.Encode)
	r := bytes.NewReader(nil)
	var scratch []byte
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"RequestFrame", func() { out.Reset(); out.RequestFrame(req) }},
		{"ServerFrame", func() { out.Reset(); out.ServerFrame(KindEvent, ev.Encode) }},
		{"ReadRequestFrame", func() {
			r.Reset(reqFrame.Bytes())
			_, scratch, _ = ReadRequestFrame(r, scratch)
		}},
		{"ReadServerFrame", func() {
			r.Reset(evFrame.Bytes())
			_, scratch, _ = ReadServerFrame(r, scratch)
		}},
	} {
		c.fn() // grows the buffer
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocated %v times per frame, want 0", c.name, n)
		}
	}
}

// TestEventRoundTrip property: any event encodes and decodes identically.
func TestEventRoundTrip(t *testing.T) {
	f := func(typ uint8, win, sub uint32, detail uint32, x, y int16,
		state uint16, tme uint32, wd, ht uint16, atom uint32, data string) bool {
		ev := Event{
			Type: typ, Window: ID(win), Subwindow: ID(sub), Detail: detail,
			Keysym: Keysym(detail), X: x, Y: y, RootX: x + 1, RootY: y + 1,
			State: state, Time: tme, Width: wd, Height: ht,
			Atom: Atom(atom), Selection: Atom(atom + 1), Target: Atom(atom + 2),
			Property: Atom(atom + 3), Requestor: ID(win + 1),
			Count: 2, BorderWidth: 3, PropState: 1, SendEvent: true, Data: data,
		}
		var w Writer
		ev.Encode(&w)
		var got Event
		got.Decode(NewReader(w.Bytes()))
		return reflect.DeepEqual(ev, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sampleRequests holds one request for each row of the request table
// that has a constructor, with its fields set. TestRequestRoundTrips
// round-trips each, and FuzzReadRequestFrame seeds its corpus with one
// frame of each.
var sampleRequests = []Request{
	&CreateWindowReq{Wid: 5, Parent: 1, X: -3, Y: 7, Width: 100, Height: 50,
		BorderWidth: 2, Background: 0xffffff, Border: 0x123456,
		EventMask: ExposureMask, OverrideRedirect: true},
	&ChangeWindowAttributesReq{Window: 9, Mask: AttrEventMask | AttrCursor,
		EventMask: KeyPressMask, Cursor: 77},
	&DestroyWindowReq{Window: 4},
	&MapWindowReq{Window: 4},
	&UnmapWindowReq{Window: 4},
	&ConfigureWindowReq{Window: 4, Mask: CWX | CWWidth, X: 10, Width: 20, StackMode: StackBelow},
	&GetGeometryReq{Drawable: 8},
	&QueryTreeReq{Window: 1},
	&InternAtomReq{Name: "FOO", OnlyIfExists: true},
	&GetAtomNameReq{Atom: 42},
	&ChangePropertyReq{Window: 2, Property: 3, Type: AtomString, Mode: PropModeAppend, Data: []byte("hi")},
	&DeletePropertyReq{Window: 2, Property: 3},
	&GetPropertyReq{Window: 2, Property: 3, Delete: true},
	&ListPropertiesReq{Window: 2},
	&SetSelectionOwnerReq{Selection: AtomPrimary, Owner: 6, Time: 99},
	&GetSelectionOwnerReq{Selection: AtomPrimary},
	&ConvertSelectionReq{Selection: 1, Target: 3, Property: 9, Requestor: 4, Time: 2},
	&SendEventReq{Destination: 7, EventMask: 0, Event: Event{Type: ClientMessage, Data: "x"}},
	&QueryPointerReq{},
	&SetInputFocusReq{Focus: 3},
	&GetInputFocusReq{},
	&OpenFontReq{Fid: 11, Name: "fixed"},
	&CloseFontReq{Fid: 11},
	&QueryFontReq{Fid: 11},
	&QueryTextExtentsReq{Fid: 11, Text: "hello"},
	&CreatePixmapReq{Pid: 12, Width: 64, Height: 32},
	&FreePixmapReq{Pid: 12},
	&CreateGCReq{Gid: 13, Mask: GCForeground, Foreground: 0xff0000},
	&ChangeGCReq{Gid: 13, Mask: GCFont, Font: 11},
	&FreeGCReq{Gid: 13},
	&ClearAreaReq{Window: 2, X: 1, Y: 2, Width: 3, Height: 4},
	&CopyAreaReq{Src: 1, Dst: 2, Gc: 3, SrcX: 4, SrcY: 5, DstX: 6, DstY: 7, Width: 8, Height: 9},
	&PolyLineReq{Drawable: 1, Gc: 2, Points: []Point{{1, 2}, {3, 4}}},
	&PolySegmentReq{Drawable: 1, Gc: 2, Points: []Point{{1, 2}, {3, 4}}},
	&PolyRectangleReq{Drawable: 1, Gc: 2, Rects: []Rect{{1, 2, 3, 4}}},
	&FillPolyReq{Drawable: 1, Gc: 2, Points: []Point{{0, 0}, {5, 0}, {0, 5}}},
	&PolyFillRectangleReq{Drawable: 1, Gc: 2, Rects: []Rect{{1, 2, 3, 4}, {5, 6, 7, 8}}},
	&PolyText8Req{Drawable: 1, Gc: 2, X: 3, Y: 4, Text: "hello"},
	&ImageText8Req{Drawable: 1, Gc: 2, X: 3, Y: 4, Text: "hello"},
	&AllocColorReq{R: 1, G: 2, B: 3},
	&AllocNamedColorReq{Name: "red"},
	&CreateCursorReq{Cid: 14, Shape: "coffee_mug"},
	&BellReq{},
	&FakeInputReq{Kind: FakeKeyPress, Detail: 0xff1b},
	&ScreenshotReq{Window: 1},
	&PingReq{},
	&AttachSessionReq{Session: "s1"},
	&UpgradeWireReq{Version: 2},
}

// TestRequestRoundTrips checks that every request in the request table
// decodes to an identical value after encoding, and that no row with a
// constructor lacks a sample.
func TestRequestRoundTrips(t *testing.T) {
	samples := make(map[uint16]Request)
	for _, req := range sampleRequests {
		samples[req.Op()] = req
	}
	for op, rt := range requestTypes {
		if rt.New == nil {
			continue
		}
		req, ok := samples[uint16(op)]
		if !ok {
			t.Errorf("request %s has no case in sampleRequests", rt.Name)
			continue
		}
		var w Writer
		req.Encode(&w)
		fresh := NewRequest(req.Op())
		r := NewReader(w.Bytes())
		fresh.Decode(r)
		if r.Err() != nil {
			t.Fatalf("%T decode error: %v", req, r.Err())
		}
		if !reflect.DeepEqual(req, fresh) {
			t.Fatalf("%T round trip: %#v != %#v", req, req, fresh)
		}
	}
}

// TestRequestTable: every Op constant the package declares has a row
// of the request table named after it, every row that reaches dispatch
// has a constructor, and each constructor builds the request type its
// row's name says, for its own opcode. Every opcode is below 256, the
// size of the per-opcode counter tables.
func TestRequestTable(t *testing.T) {
	if len(requestTypes) > 256 {
		t.Errorf("the request table has %d rows, want at most 256", len(requestTypes))
	}
	rows := make(map[string]bool)
	for op, rt := range requestTypes {
		if rt.Name == "" {
			continue
		}
		rows[rt.Name] = true
		if rt.New == nil {
			if !rt.Handshake {
				t.Errorf("row %d (%s) reaches dispatch but has no constructor", op, rt.Name)
			}
			continue
		}
		req := rt.New()
		if typ := reflect.TypeOf(req).Elem().Name(); typ != rt.Name+"Req" || req.Op() != uint16(op) {
			t.Errorf("row %d (%s) builds a %s for opcode %d", op, rt.Name, typ, req.Op())
		}
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	consts := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok || d.Tok != token.CONST {
				continue
			}
			for _, spec := range d.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if !opConst.MatchString(name.Name) {
						continue
					}
					consts++
					if !rows[strings.TrimPrefix(name.Name, "Op")] {
						t.Errorf("%s: %s has no row in the request table", fset.Position(name.Pos()), name.Name)
					}
				}
			}
		}
	}
	if consts != len(rows) {
		t.Errorf("%d Op constants, but %d rows in the request table", consts, len(rows))
	}
}

// opConst matches the name of a request opcode constant.
var opConst = regexp.MustCompile(`^Op[A-Z]`)

func TestKeysyms(t *testing.T) {
	cases := []struct {
		name string
		ks   Keysym
	}{
		{"a", 'a'}, {"Z", 'Z'}, {"space", KsSpace}, {"Escape", KsEscape},
		{"Return", KsReturn}, {"BackSpace", KsBackSpace}, {"Control_L", KsControlL},
	}
	for _, c := range cases {
		ks, ok := KeysymFromName(c.name)
		if !ok || ks != c.ks {
			t.Errorf("KeysymFromName(%q) = %v %v", c.name, ks, ok)
		}
	}
	if _, ok := KeysymFromName("NotAKey"); ok {
		t.Error("bogus keysym resolved")
	}
	if KeysymName(KsEscape) != "Escape" || KeysymName('q') != "q" || KeysymName(KsSpace) != "space" {
		t.Error("KeysymName round trip")
	}
	// Modifier classification.
	if !IsModifierKeysym(KsShiftL) || IsModifierKeysym('a') {
		t.Error("IsModifierKeysym")
	}
	if KeysymModifier(KsControlR) != ControlMask || KeysymModifier('x') != 0 {
		t.Error("KeysymModifier")
	}
}

func TestKeysymRune(t *testing.T) {
	if KeysymRune('a', 0) != "a" {
		t.Error("plain letter")
	}
	if KeysymRune('a', ShiftMask) != "A" {
		t.Error("shifted letter")
	}
	if KeysymRune('1', ShiftMask) != "!" {
		t.Error("shifted digit")
	}
	if KeysymRune(KsReturn, 0) != "\n" {
		t.Error("return")
	}
	if KeysymRune(KsEscape, 0) != "" {
		t.Error("escape should have no text")
	}
}

func TestEventMasks(t *testing.T) {
	if EventMaskFor(KeyPress) != KeyPressMask {
		t.Error("KeyPress mask")
	}
	if EventMaskFor(Expose) != ExposureMask {
		t.Error("Expose mask")
	}
	if EventMaskFor(SelectionNotify) != 0 {
		t.Error("selection events are unconditional")
	}
	if ButtonMask(1) != Button1Mask || ButtonMask(5) != Button5Mask || ButtonMask(9) != 0 {
		t.Error("ButtonMask")
	}
}
