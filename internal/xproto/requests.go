package xproto

import "strconv"

// Request opcodes. Core values follow the X11 protocol numbering for
// familiarity; opcodes 200+ are simulator extensions (synthetic input,
// screenshots, counters) standing in for the XTEST extension and
// out-of-band test instrumentation.
const (
	OpCreateWindow           uint16 = 1
	OpChangeWindowAttributes uint16 = 2
	OpDestroyWindow          uint16 = 4
	OpMapWindow              uint16 = 8
	OpUnmapWindow            uint16 = 10
	OpConfigureWindow        uint16 = 12
	OpGetGeometry            uint16 = 14
	OpQueryTree              uint16 = 15
	OpInternAtom             uint16 = 16
	OpGetAtomName            uint16 = 17
	OpChangeProperty         uint16 = 18
	OpDeleteProperty         uint16 = 19
	OpGetProperty            uint16 = 20
	OpListProperties         uint16 = 21
	OpSetSelectionOwner      uint16 = 22
	OpGetSelectionOwner      uint16 = 23
	OpConvertSelection       uint16 = 24
	OpSendEvent              uint16 = 25
	OpQueryPointer           uint16 = 38
	OpSetInputFocus          uint16 = 42
	OpGetInputFocus          uint16 = 43
	OpOpenFont               uint16 = 45
	OpCloseFont              uint16 = 46
	OpQueryFont              uint16 = 47
	OpQueryTextExtents       uint16 = 48
	OpCreatePixmap           uint16 = 53
	OpFreePixmap             uint16 = 54
	OpCreateGC               uint16 = 55
	OpChangeGC               uint16 = 56
	OpFreeGC                 uint16 = 60
	OpClearArea              uint16 = 61
	OpCopyArea               uint16 = 62
	OpPolyLine               uint16 = 65
	OpPolySegment            uint16 = 66
	OpPolyRectangle          uint16 = 67
	OpFillPoly               uint16 = 69
	OpPolyFillRectangle      uint16 = 70
	OpPolyText8              uint16 = 74
	OpImageText8             uint16 = 76
	OpAllocColor             uint16 = 84
	OpAllocNamedColor        uint16 = 85
	OpCreateCursor           uint16 = 93
	OpBell                   uint16 = 104

	OpFakeInput     uint16 = 200
	OpScreenshot    uint16 = 201
	OpPing          uint16 = 202
	OpAttachSession uint16 = 205
)

// Request is one client-to-server protocol request.
type Request interface {
	Op() uint16
	Encode(w *Writer)
	Decode(r *Reader)
}

// A RequestType is one row of the request table: what the protocol
// says about one request opcode.
type RequestType struct {
	// Name is the protocol name, as traces, spans and the
	// "requests.<Name>" counters show it.
	Name string
	// New returns an empty request to decode a frame into. It is nil
	// for WireSeg, whose frames the request loop unwraps.
	New func() Request
	// Reply is set when the server answers with a reply, so the request
	// costs the client a round trip.
	Reply bool
	// Handshake is set when the server's request loop consumes the
	// frame without a sequence number, so it never reaches dispatch:
	// the session attach, the wire upgrade and the v2 segment, whose
	// inner requests are numbered instead.
	Handshake bool
}

// requestTypes is the request table, indexed by opcode. An opcode no
// request has holds the zero row.
var requestTypes = [...]RequestType{
	OpCreateWindow:           {Name: "CreateWindow", New: newReq[CreateWindowReq]},
	OpChangeWindowAttributes: {Name: "ChangeWindowAttributes", New: newReq[ChangeWindowAttributesReq]},
	OpDestroyWindow:          {Name: "DestroyWindow", New: newReq[DestroyWindowReq]},
	OpMapWindow:              {Name: "MapWindow", New: newReq[MapWindowReq]},
	OpUnmapWindow:            {Name: "UnmapWindow", New: newReq[UnmapWindowReq]},
	OpConfigureWindow:        {Name: "ConfigureWindow", New: newReq[ConfigureWindowReq]},
	OpGetGeometry:            {Name: "GetGeometry", New: newReq[GetGeometryReq], Reply: true},
	OpQueryTree:              {Name: "QueryTree", New: newReq[QueryTreeReq], Reply: true},
	OpInternAtom:             {Name: "InternAtom", New: newReq[InternAtomReq], Reply: true},
	OpGetAtomName:            {Name: "GetAtomName", New: newReq[GetAtomNameReq], Reply: true},
	OpChangeProperty:         {Name: "ChangeProperty", New: newReq[ChangePropertyReq]},
	OpDeleteProperty:         {Name: "DeleteProperty", New: newReq[DeletePropertyReq]},
	OpGetProperty:            {Name: "GetProperty", New: newReq[GetPropertyReq], Reply: true},
	OpListProperties:         {Name: "ListProperties", New: newReq[ListPropertiesReq], Reply: true},
	OpSetSelectionOwner:      {Name: "SetSelectionOwner", New: newReq[SetSelectionOwnerReq]},
	OpGetSelectionOwner:      {Name: "GetSelectionOwner", New: newReq[GetSelectionOwnerReq], Reply: true},
	OpConvertSelection:       {Name: "ConvertSelection", New: newReq[ConvertSelectionReq]},
	OpSendEvent:              {Name: "SendEvent", New: newReq[SendEventReq]},
	OpQueryPointer:           {Name: "QueryPointer", New: newReq[QueryPointerReq], Reply: true},
	OpSetInputFocus:          {Name: "SetInputFocus", New: newReq[SetInputFocusReq]},
	OpGetInputFocus:          {Name: "GetInputFocus", New: newReq[GetInputFocusReq], Reply: true},
	OpOpenFont:               {Name: "OpenFont", New: newReq[OpenFontReq]},
	OpCloseFont:              {Name: "CloseFont", New: newReq[CloseFontReq]},
	OpQueryFont:              {Name: "QueryFont", New: newReq[QueryFontReq], Reply: true},
	OpQueryTextExtents:       {Name: "QueryTextExtents", New: newReq[QueryTextExtentsReq], Reply: true},
	OpCreatePixmap:           {Name: "CreatePixmap", New: newReq[CreatePixmapReq]},
	OpFreePixmap:             {Name: "FreePixmap", New: newReq[FreePixmapReq]},
	OpCreateGC:               {Name: "CreateGC", New: newReq[CreateGCReq]},
	OpChangeGC:               {Name: "ChangeGC", New: newReq[ChangeGCReq]},
	OpFreeGC:                 {Name: "FreeGC", New: newReq[FreeGCReq]},
	OpClearArea:              {Name: "ClearArea", New: newReq[ClearAreaReq]},
	OpCopyArea:               {Name: "CopyArea", New: newReq[CopyAreaReq]},
	OpPolyLine:               {Name: "PolyLine", New: newReq[PolyLineReq]},
	OpPolySegment:            {Name: "PolySegment", New: newReq[PolySegmentReq]},
	OpPolyRectangle:          {Name: "PolyRectangle", New: newReq[PolyRectangleReq]},
	OpFillPoly:               {Name: "FillPoly", New: newReq[FillPolyReq]},
	OpPolyFillRectangle:      {Name: "PolyFillRectangle", New: newReq[PolyFillRectangleReq]},
	OpPolyText8:              {Name: "PolyText8", New: newReq[PolyText8Req]},
	OpImageText8:             {Name: "ImageText8", New: newReq[ImageText8Req]},
	OpAllocColor:             {Name: "AllocColor", New: newReq[AllocColorReq], Reply: true},
	OpAllocNamedColor:        {Name: "AllocNamedColor", New: newReq[AllocNamedColorReq], Reply: true},
	OpCreateCursor:           {Name: "CreateCursor", New: newReq[CreateCursorReq]},
	OpBell:                   {Name: "Bell", New: newReq[BellReq]},
	OpFakeInput:              {Name: "FakeInput", New: newReq[FakeInputReq]},
	OpScreenshot:             {Name: "Screenshot", New: newReq[ScreenshotReq], Reply: true},
	OpPing:                   {Name: "Ping", New: newReq[PingReq], Reply: true},
	OpAttachSession:          {Name: "AttachSession", New: newReq[AttachSessionReq], Handshake: true},
	OpUpgradeWire:            {Name: "UpgradeWire", New: newReq[UpgradeWireReq], Handshake: true},
	OpWireSeg:                {Name: "WireSeg", Handshake: true},
}

// newReq is a row's constructor: an empty *T.
func newReq[T any, P interface {
	*T
	Request
}]() Request {
	return P(new(T))
}

// LookupRequest returns op's row of the request table, and false for an
// opcode no request has.
func LookupRequest(op uint16) (RequestType, bool) {
	if int(op) < len(requestTypes) && requestTypes[op].Name != "" {
		return requestTypes[op], true
	}
	return RequestType{}, false
}

// NewRequest returns an empty request to decode op's frame into, or nil
// for an opcode no request has and for WireSeg.
func NewRequest(op uint16) Request {
	if rt, ok := LookupRequest(op); ok && rt.New != nil {
		return rt.New()
	}
	return nil
}

// OpName returns the protocol name of a request opcode ("CreateWindow"),
// or "op<N>" for an opcode no request has.
func OpName(op uint16) string {
	if rt, ok := LookupRequest(op); ok {
		return rt.Name
	}
	return "op" + strconv.FormatUint(uint64(op), 10)
}

// Window attribute mask bits for CreateWindow/ChangeWindowAttributes.
const (
	AttrBackground uint32 = 1 << 0
	AttrBorder     uint32 = 1 << 1
	AttrEventMask  uint32 = 1 << 2
	AttrOverride   uint32 = 1 << 3
	AttrCursor     uint32 = 1 << 4
)

// CreateWindowReq creates a child window.
type CreateWindowReq struct {
	Wid, Parent      ID
	X, Y             int16
	Width, Height    uint16
	BorderWidth      uint16
	Background       uint32
	Border           uint32
	EventMask        uint32
	OverrideRedirect bool
}

func (q *CreateWindowReq) Op() uint16 { return OpCreateWindow }
func (q *CreateWindowReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Wid))
	w.PutU32(uint32(q.Parent))
	w.PutI16(q.X)
	w.PutI16(q.Y)
	w.PutU16(q.Width)
	w.PutU16(q.Height)
	w.PutU16(q.BorderWidth)
	w.PutU32(q.Background)
	w.PutU32(q.Border)
	w.PutU32(q.EventMask)
	w.PutBool(q.OverrideRedirect)
}
func (q *CreateWindowReq) Decode(r *Reader) {
	q.Wid = ID(r.U32())
	q.Parent = ID(r.U32())
	q.X = r.I16()
	q.Y = r.I16()
	q.Width = r.U16()
	q.Height = r.U16()
	q.BorderWidth = r.U16()
	q.Background = r.U32()
	q.Border = r.U32()
	q.EventMask = r.U32()
	q.OverrideRedirect = r.Bool()
}

// ChangeWindowAttributesReq updates attributes selected by Mask.
type ChangeWindowAttributesReq struct {
	Window           ID
	Mask             uint32
	Background       uint32
	Border           uint32
	EventMask        uint32
	OverrideRedirect bool
	Cursor           ID
}

func (q *ChangeWindowAttributesReq) Op() uint16 { return OpChangeWindowAttributes }
func (q *ChangeWindowAttributesReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Window))
	w.PutU32(q.Mask)
	w.PutU32(q.Background)
	w.PutU32(q.Border)
	w.PutU32(q.EventMask)
	w.PutBool(q.OverrideRedirect)
	w.PutU32(uint32(q.Cursor))
}
func (q *ChangeWindowAttributesReq) Decode(r *Reader) {
	q.Window = ID(r.U32())
	q.Mask = r.U32()
	q.Background = r.U32()
	q.Border = r.U32()
	q.EventMask = r.U32()
	q.OverrideRedirect = r.Bool()
	q.Cursor = ID(r.U32())
}

// DestroyWindowReq destroys a window and all descendants.
type DestroyWindowReq struct{ Window ID }

func (q *DestroyWindowReq) Op() uint16       { return OpDestroyWindow }
func (q *DestroyWindowReq) Encode(w *Writer) { w.PutU32(uint32(q.Window)) }
func (q *DestroyWindowReq) Decode(r *Reader) { q.Window = ID(r.U32()) }

// MapWindowReq maps (shows) a window.
type MapWindowReq struct{ Window ID }

func (q *MapWindowReq) Op() uint16       { return OpMapWindow }
func (q *MapWindowReq) Encode(w *Writer) { w.PutU32(uint32(q.Window)) }
func (q *MapWindowReq) Decode(r *Reader) { q.Window = ID(r.U32()) }

// UnmapWindowReq unmaps (hides) a window.
type UnmapWindowReq struct{ Window ID }

func (q *UnmapWindowReq) Op() uint16       { return OpUnmapWindow }
func (q *UnmapWindowReq) Encode(w *Writer) { w.PutU32(uint32(q.Window)) }
func (q *UnmapWindowReq) Decode(r *Reader) { q.Window = ID(r.U32()) }

// ConfigureWindowReq moves/resizes/restacks a window per Mask.
type ConfigureWindowReq struct {
	Window        ID
	Mask          uint16
	X, Y          int16
	Width, Height uint16
	BorderWidth   uint16
	StackMode     uint8
}

func (q *ConfigureWindowReq) Op() uint16 { return OpConfigureWindow }
func (q *ConfigureWindowReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Window))
	w.PutU16(q.Mask)
	w.PutI16(q.X)
	w.PutI16(q.Y)
	w.PutU16(q.Width)
	w.PutU16(q.Height)
	w.PutU16(q.BorderWidth)
	w.PutU8(q.StackMode)
}
func (q *ConfigureWindowReq) Decode(r *Reader) {
	q.Window = ID(r.U32())
	q.Mask = r.U16()
	q.X = r.I16()
	q.Y = r.I16()
	q.Width = r.U16()
	q.Height = r.U16()
	q.BorderWidth = r.U16()
	q.StackMode = r.U8()
}

// GetGeometryReq asks for a drawable's geometry.
type GetGeometryReq struct{ Drawable ID }

func (q *GetGeometryReq) Op() uint16       { return OpGetGeometry }
func (q *GetGeometryReq) Encode(w *Writer) { w.PutU32(uint32(q.Drawable)) }
func (q *GetGeometryReq) Decode(r *Reader) { q.Drawable = ID(r.U32()) }

// GeometryReply answers GetGeometry.
type GeometryReply struct {
	Root          ID
	X, Y          int16
	Width, Height uint16
	BorderWidth   uint16
}

// Encode serializes the reply.
func (p *GeometryReply) Encode(w *Writer) {
	w.PutU32(uint32(p.Root))
	w.PutI16(p.X)
	w.PutI16(p.Y)
	w.PutU16(p.Width)
	w.PutU16(p.Height)
	w.PutU16(p.BorderWidth)
}

// Decode deserializes the reply.
func (p *GeometryReply) Decode(r *Reader) {
	p.Root = ID(r.U32())
	p.X = r.I16()
	p.Y = r.I16()
	p.Width = r.U16()
	p.Height = r.U16()
	p.BorderWidth = r.U16()
}

// QueryTreeReq asks for a window's parent and children.
type QueryTreeReq struct{ Window ID }

func (q *QueryTreeReq) Op() uint16       { return OpQueryTree }
func (q *QueryTreeReq) Encode(w *Writer) { w.PutU32(uint32(q.Window)) }
func (q *QueryTreeReq) Decode(r *Reader) { q.Window = ID(r.U32()) }

// QueryTreeReply answers QueryTree; children are bottom-to-top.
type QueryTreeReply struct {
	Root, Parent ID
	Children     []ID
}

// Encode serializes the reply.
func (p *QueryTreeReply) Encode(w *Writer) {
	w.PutU32(uint32(p.Root))
	w.PutU32(uint32(p.Parent))
	w.PutU32(uint32(len(p.Children)))
	for _, c := range p.Children {
		w.PutU32(uint32(c))
	}
}

// Decode deserializes the reply.
func (p *QueryTreeReply) Decode(r *Reader) {
	p.Root = ID(r.U32())
	p.Parent = ID(r.U32())
	n := int(r.U32())
	p.Children = make([]ID, 0, n)
	for i := 0; i < n; i++ {
		p.Children = append(p.Children, ID(r.U32()))
	}
}

// InternAtomReq interns (or looks up) an atom by name.
type InternAtomReq struct {
	Name         string
	OnlyIfExists bool
}

func (q *InternAtomReq) Op() uint16 { return OpInternAtom }
func (q *InternAtomReq) Encode(w *Writer) {
	w.PutString(q.Name)
	w.PutBool(q.OnlyIfExists)
}
func (q *InternAtomReq) Decode(r *Reader) {
	q.Name = r.String()
	q.OnlyIfExists = r.Bool()
}

// AtomReply carries a single atom.
type AtomReply struct{ Atom Atom }

// Encode serializes the reply.
func (p *AtomReply) Encode(w *Writer) { w.PutU32(uint32(p.Atom)) }

// Decode deserializes the reply.
func (p *AtomReply) Decode(r *Reader) { p.Atom = Atom(r.U32()) }

// GetAtomNameReq looks up an atom's name.
type GetAtomNameReq struct{ Atom Atom }

func (q *GetAtomNameReq) Op() uint16       { return OpGetAtomName }
func (q *GetAtomNameReq) Encode(w *Writer) { w.PutU32(uint32(q.Atom)) }
func (q *GetAtomNameReq) Decode(r *Reader) { q.Atom = Atom(r.U32()) }

// NameReply carries a single string.
type NameReply struct{ Name string }

// Encode serializes the reply.
func (p *NameReply) Encode(w *Writer) { w.PutString(p.Name) }

// Decode deserializes the reply.
func (p *NameReply) Decode(r *Reader) { p.Name = r.String() }

// ChangePropertyReq sets or appends to a window property.
type ChangePropertyReq struct {
	Window   ID
	Property Atom
	Type     Atom
	Mode     uint8
	Data     []byte
}

func (q *ChangePropertyReq) Op() uint16 { return OpChangeProperty }
func (q *ChangePropertyReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Window))
	w.PutU32(uint32(q.Property))
	w.PutU32(uint32(q.Type))
	w.PutU8(q.Mode)
	w.PutBytes(q.Data)
}
func (q *ChangePropertyReq) Decode(r *Reader) {
	q.Window = ID(r.U32())
	q.Property = Atom(r.U32())
	q.Type = Atom(r.U32())
	q.Mode = r.U8()
	q.Data = append([]byte(nil), r.ByteSlice()...)
}

// DeletePropertyReq removes a property from a window.
type DeletePropertyReq struct {
	Window   ID
	Property Atom
}

func (q *DeletePropertyReq) Op() uint16 { return OpDeleteProperty }
func (q *DeletePropertyReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Window))
	w.PutU32(uint32(q.Property))
}
func (q *DeletePropertyReq) Decode(r *Reader) {
	q.Window = ID(r.U32())
	q.Property = Atom(r.U32())
}

// GetPropertyReq reads a property, optionally deleting it afterwards.
type GetPropertyReq struct {
	Window   ID
	Property Atom
	Delete   bool
}

func (q *GetPropertyReq) Op() uint16 { return OpGetProperty }
func (q *GetPropertyReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Window))
	w.PutU32(uint32(q.Property))
	w.PutBool(q.Delete)
}
func (q *GetPropertyReq) Decode(r *Reader) {
	q.Window = ID(r.U32())
	q.Property = Atom(r.U32())
	q.Delete = r.Bool()
}

// GetPropertyReply answers GetProperty.
type GetPropertyReply struct {
	Found bool
	Type  Atom
	Data  []byte
}

// Encode serializes the reply.
func (p *GetPropertyReply) Encode(w *Writer) {
	w.PutBool(p.Found)
	w.PutU32(uint32(p.Type))
	w.PutBytes(p.Data)
}

// Decode deserializes the reply.
func (p *GetPropertyReply) Decode(r *Reader) {
	p.Found = r.Bool()
	p.Type = Atom(r.U32())
	p.Data = append([]byte(nil), r.ByteSlice()...)
}

// ListPropertiesReq lists the property atoms present on a window.
type ListPropertiesReq struct{ Window ID }

func (q *ListPropertiesReq) Op() uint16       { return OpListProperties }
func (q *ListPropertiesReq) Encode(w *Writer) { w.PutU32(uint32(q.Window)) }
func (q *ListPropertiesReq) Decode(r *Reader) { q.Window = ID(r.U32()) }

// ListPropertiesReply answers ListProperties.
type ListPropertiesReply struct{ Atoms []Atom }

// Encode serializes the reply.
func (p *ListPropertiesReply) Encode(w *Writer) {
	w.PutU32(uint32(len(p.Atoms)))
	for _, a := range p.Atoms {
		w.PutU32(uint32(a))
	}
}

// Decode deserializes the reply.
func (p *ListPropertiesReply) Decode(r *Reader) {
	n := int(r.U32())
	p.Atoms = make([]Atom, 0, n)
	for i := 0; i < n; i++ {
		p.Atoms = append(p.Atoms, Atom(r.U32()))
	}
}

// SetSelectionOwnerReq claims (or with Owner None, releases) a selection.
type SetSelectionOwnerReq struct {
	Selection Atom
	Owner     ID
	Time      uint32
}

func (q *SetSelectionOwnerReq) Op() uint16 { return OpSetSelectionOwner }
func (q *SetSelectionOwnerReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Selection))
	w.PutU32(uint32(q.Owner))
	w.PutU32(q.Time)
}
func (q *SetSelectionOwnerReq) Decode(r *Reader) {
	q.Selection = Atom(r.U32())
	q.Owner = ID(r.U32())
	q.Time = r.U32()
}

// GetSelectionOwnerReq asks who owns a selection.
type GetSelectionOwnerReq struct{ Selection Atom }

func (q *GetSelectionOwnerReq) Op() uint16       { return OpGetSelectionOwner }
func (q *GetSelectionOwnerReq) Encode(w *Writer) { w.PutU32(uint32(q.Selection)) }
func (q *GetSelectionOwnerReq) Decode(r *Reader) { q.Selection = Atom(r.U32()) }

// WindowReply carries a single window ID.
type WindowReply struct{ Window ID }

// Encode serializes the reply.
func (p *WindowReply) Encode(w *Writer) { w.PutU32(uint32(p.Window)) }

// Decode deserializes the reply.
func (p *WindowReply) Decode(r *Reader) { p.Window = ID(r.U32()) }

// ConvertSelectionReq asks the selection owner to convert the selection
// to Target and store it on Requestor's Property (ICCCM).
type ConvertSelectionReq struct {
	Selection Atom
	Target    Atom
	Property  Atom
	Requestor ID
	Time      uint32
}

func (q *ConvertSelectionReq) Op() uint16 { return OpConvertSelection }
func (q *ConvertSelectionReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Selection))
	w.PutU32(uint32(q.Target))
	w.PutU32(uint32(q.Property))
	w.PutU32(uint32(q.Requestor))
	w.PutU32(q.Time)
}
func (q *ConvertSelectionReq) Decode(r *Reader) {
	q.Selection = Atom(r.U32())
	q.Target = Atom(r.U32())
	q.Property = Atom(r.U32())
	q.Requestor = ID(r.U32())
	q.Time = r.U32()
}

// SendEventReq delivers a synthetic event to a window.
type SendEventReq struct {
	Destination ID
	EventMask   uint32
	Event       Event
}

func (q *SendEventReq) Op() uint16 { return OpSendEvent }
func (q *SendEventReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Destination))
	w.PutU32(q.EventMask)
	q.Event.Encode(w)
}
func (q *SendEventReq) Decode(r *Reader) {
	q.Destination = ID(r.U32())
	q.EventMask = r.U32()
	q.Event.Decode(r)
}

// QueryPointerReq asks for the pointer position and state.
type QueryPointerReq struct{}

func (q *QueryPointerReq) Op() uint16       { return OpQueryPointer }
func (q *QueryPointerReq) Encode(w *Writer) {}
func (q *QueryPointerReq) Decode(r *Reader) {}

// QueryPointerReply answers QueryPointer.
type QueryPointerReply struct {
	X, Y  int16
	State uint16
	Child ID
}

// Encode serializes the reply.
func (p *QueryPointerReply) Encode(w *Writer) {
	w.PutI16(p.X)
	w.PutI16(p.Y)
	w.PutU16(p.State)
	w.PutU32(uint32(p.Child))
}

// Decode deserializes the reply.
func (p *QueryPointerReply) Decode(r *Reader) {
	p.X = r.I16()
	p.Y = r.I16()
	p.State = r.U16()
	p.Child = ID(r.U32())
}

// SetInputFocusReq assigns the keyboard focus.
type SetInputFocusReq struct{ Focus ID }

func (q *SetInputFocusReq) Op() uint16       { return OpSetInputFocus }
func (q *SetInputFocusReq) Encode(w *Writer) { w.PutU32(uint32(q.Focus)) }
func (q *SetInputFocusReq) Decode(r *Reader) { q.Focus = ID(r.U32()) }

// GetInputFocusReq asks for the current focus window.
type GetInputFocusReq struct{}

func (q *GetInputFocusReq) Op() uint16       { return OpGetInputFocus }
func (q *GetInputFocusReq) Encode(w *Writer) {}
func (q *GetInputFocusReq) Decode(r *Reader) {}

// OpenFontReq opens a font by name under a client-chosen ID.
type OpenFontReq struct {
	Fid  ID
	Name string
}

func (q *OpenFontReq) Op() uint16 { return OpOpenFont }
func (q *OpenFontReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Fid))
	w.PutString(q.Name)
}
func (q *OpenFontReq) Decode(r *Reader) {
	q.Fid = ID(r.U32())
	q.Name = r.String()
}

// CloseFontReq closes a font.
type CloseFontReq struct{ Fid ID }

func (q *CloseFontReq) Op() uint16       { return OpCloseFont }
func (q *CloseFontReq) Encode(w *Writer) { w.PutU32(uint32(q.Fid)) }
func (q *CloseFontReq) Decode(r *Reader) { q.Fid = ID(r.U32()) }

// QueryFontReq asks for a font's metrics.
type QueryFontReq struct{ Fid ID }

func (q *QueryFontReq) Op() uint16       { return OpQueryFont }
func (q *QueryFontReq) Encode(w *Writer) { w.PutU32(uint32(q.Fid)) }
func (q *QueryFontReq) Decode(r *Reader) { q.Fid = ID(r.U32()) }

// QueryTextExtentsReq asks for the extents of a string rendered in a
// font.
type QueryTextExtentsReq struct {
	Fid  ID
	Text string
}

func (q *QueryTextExtentsReq) Op() uint16 { return OpQueryTextExtents }
func (q *QueryTextExtentsReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Fid))
	w.PutString(q.Text)
}
func (q *QueryTextExtentsReq) Decode(r *Reader) {
	q.Fid = ID(r.U32())
	q.Text = r.String()
}

// QueryTextExtentsReply answers QueryTextExtents.
type QueryTextExtentsReply struct {
	Ascent, Descent int16
	Width           int32
}

// Encode serializes the reply.
func (p *QueryTextExtentsReply) Encode(w *Writer) {
	w.PutI16(p.Ascent)
	w.PutI16(p.Descent)
	w.PutU32(uint32(p.Width))
}

// Decode deserializes the reply.
func (p *QueryTextExtentsReply) Decode(r *Reader) {
	p.Ascent = r.I16()
	p.Descent = r.I16()
	p.Width = int32(r.U32())
}

// QueryFontReply answers QueryFont. Widths holds the advance width of
// each ASCII character 0-127.
type QueryFontReply struct {
	Ascent, Descent int16
	Widths          [128]uint8
}

// Encode serializes the reply.
func (p *QueryFontReply) Encode(w *Writer) {
	w.PutI16(p.Ascent)
	w.PutI16(p.Descent)
	for _, wd := range p.Widths {
		w.PutU8(wd)
	}
}

// Decode deserializes the reply.
func (p *QueryFontReply) Decode(r *Reader) {
	p.Ascent = r.I16()
	p.Descent = r.I16()
	for i := range p.Widths {
		p.Widths[i] = r.U8()
	}
}

// CreatePixmapReq creates an off-screen drawable.
type CreatePixmapReq struct {
	Pid           ID
	Width, Height uint16
}

func (q *CreatePixmapReq) Op() uint16 { return OpCreatePixmap }
func (q *CreatePixmapReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Pid))
	w.PutU16(q.Width)
	w.PutU16(q.Height)
}
func (q *CreatePixmapReq) Decode(r *Reader) {
	q.Pid = ID(r.U32())
	q.Width = r.U16()
	q.Height = r.U16()
}

// FreePixmapReq frees a pixmap.
type FreePixmapReq struct{ Pid ID }

func (q *FreePixmapReq) Op() uint16       { return OpFreePixmap }
func (q *FreePixmapReq) Encode(w *Writer) { w.PutU32(uint32(q.Pid)) }
func (q *FreePixmapReq) Decode(r *Reader) { q.Pid = ID(r.U32()) }

// CreateGCReq creates a graphics context.
type CreateGCReq struct {
	Gid        ID
	Mask       uint32
	Foreground uint32
	Background uint32
	LineWidth  uint16
	Font       ID
}

func (q *CreateGCReq) Op() uint16 { return OpCreateGC }
func (q *CreateGCReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Gid))
	w.PutU32(q.Mask)
	w.PutU32(q.Foreground)
	w.PutU32(q.Background)
	w.PutU16(q.LineWidth)
	w.PutU32(uint32(q.Font))
}
func (q *CreateGCReq) Decode(r *Reader) {
	q.Gid = ID(r.U32())
	q.Mask = r.U32()
	q.Foreground = r.U32()
	q.Background = r.U32()
	q.LineWidth = r.U16()
	q.Font = ID(r.U32())
}

// ChangeGCReq updates GC fields selected by Mask.
type ChangeGCReq struct {
	Gid        ID
	Mask       uint32
	Foreground uint32
	Background uint32
	LineWidth  uint16
	Font       ID
}

func (q *ChangeGCReq) Op() uint16 { return OpChangeGC }
func (q *ChangeGCReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Gid))
	w.PutU32(q.Mask)
	w.PutU32(q.Foreground)
	w.PutU32(q.Background)
	w.PutU16(q.LineWidth)
	w.PutU32(uint32(q.Font))
}
func (q *ChangeGCReq) Decode(r *Reader) {
	q.Gid = ID(r.U32())
	q.Mask = r.U32()
	q.Foreground = r.U32()
	q.Background = r.U32()
	q.LineWidth = r.U16()
	q.Font = ID(r.U32())
}

// FreeGCReq frees a graphics context.
type FreeGCReq struct{ Gid ID }

func (q *FreeGCReq) Op() uint16       { return OpFreeGC }
func (q *FreeGCReq) Encode(w *Writer) { w.PutU32(uint32(q.Gid)) }
func (q *FreeGCReq) Decode(r *Reader) { q.Gid = ID(r.U32()) }

// ClearAreaReq fills an area of a window with its background. A zero
// width/height extends to the window edge.
type ClearAreaReq struct {
	Window        ID
	X, Y          int16
	Width, Height uint16
}

func (q *ClearAreaReq) Op() uint16 { return OpClearArea }
func (q *ClearAreaReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Window))
	w.PutI16(q.X)
	w.PutI16(q.Y)
	w.PutU16(q.Width)
	w.PutU16(q.Height)
}
func (q *ClearAreaReq) Decode(r *Reader) {
	q.Window = ID(r.U32())
	q.X = r.I16()
	q.Y = r.I16()
	q.Width = r.U16()
	q.Height = r.U16()
}

// CopyAreaReq copies pixels between drawables.
type CopyAreaReq struct {
	Src, Dst, Gc  ID
	SrcX, SrcY    int16
	DstX, DstY    int16
	Width, Height uint16
}

func (q *CopyAreaReq) Op() uint16 { return OpCopyArea }
func (q *CopyAreaReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Src))
	w.PutU32(uint32(q.Dst))
	w.PutU32(uint32(q.Gc))
	w.PutI16(q.SrcX)
	w.PutI16(q.SrcY)
	w.PutI16(q.DstX)
	w.PutI16(q.DstY)
	w.PutU16(q.Width)
	w.PutU16(q.Height)
}
func (q *CopyAreaReq) Decode(r *Reader) {
	q.Src = ID(r.U32())
	q.Dst = ID(r.U32())
	q.Gc = ID(r.U32())
	q.SrcX = r.I16()
	q.SrcY = r.I16()
	q.DstX = r.I16()
	q.DstY = r.I16()
	q.Width = r.U16()
	q.Height = r.U16()
}

func encodePoints(w *Writer, pts []Point) {
	w.PutU32(uint32(len(pts)))
	for _, p := range pts {
		w.PutI16(p.X)
		w.PutI16(p.Y)
	}
}

func decodePoints(r *Reader) []Point {
	n := int(r.U32())
	if n < 0 || n > 1<<20 {
		return nil
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, Point{X: r.I16(), Y: r.I16()})
	}
	return pts
}

func encodeRects(w *Writer, rects []Rect) {
	w.PutU32(uint32(len(rects)))
	for _, rc := range rects {
		w.PutI16(rc.X)
		w.PutI16(rc.Y)
		w.PutU16(rc.W)
		w.PutU16(rc.H)
	}
}

func decodeRects(r *Reader) []Rect {
	n := int(r.U32())
	if n < 0 || n > 1<<20 {
		return nil
	}
	rects := make([]Rect, 0, n)
	for i := 0; i < n; i++ {
		rects = append(rects, Rect{X: r.I16(), Y: r.I16(), W: r.U16(), H: r.U16()})
	}
	return rects
}

// PolyLineReq draws connected line segments.
type PolyLineReq struct {
	Drawable, Gc ID
	Points       []Point
}

func (q *PolyLineReq) Op() uint16 { return OpPolyLine }
func (q *PolyLineReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Drawable))
	w.PutU32(uint32(q.Gc))
	encodePoints(w, q.Points)
}
func (q *PolyLineReq) Decode(r *Reader) {
	q.Drawable = ID(r.U32())
	q.Gc = ID(r.U32())
	q.Points = decodePoints(r)
}

// PolySegmentReq draws disjoint segments (pairs of points).
type PolySegmentReq struct {
	Drawable, Gc ID
	Points       []Point
}

func (q *PolySegmentReq) Op() uint16 { return OpPolySegment }
func (q *PolySegmentReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Drawable))
	w.PutU32(uint32(q.Gc))
	encodePoints(w, q.Points)
}
func (q *PolySegmentReq) Decode(r *Reader) {
	q.Drawable = ID(r.U32())
	q.Gc = ID(r.U32())
	q.Points = decodePoints(r)
}

// PolyRectangleReq outlines rectangles.
type PolyRectangleReq struct {
	Drawable, Gc ID
	Rects        []Rect
}

func (q *PolyRectangleReq) Op() uint16 { return OpPolyRectangle }
func (q *PolyRectangleReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Drawable))
	w.PutU32(uint32(q.Gc))
	encodeRects(w, q.Rects)
}
func (q *PolyRectangleReq) Decode(r *Reader) {
	q.Drawable = ID(r.U32())
	q.Gc = ID(r.U32())
	q.Rects = decodeRects(r)
}

// FillPolyReq fills a polygon.
type FillPolyReq struct {
	Drawable, Gc ID
	Points       []Point
}

func (q *FillPolyReq) Op() uint16 { return OpFillPoly }
func (q *FillPolyReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Drawable))
	w.PutU32(uint32(q.Gc))
	encodePoints(w, q.Points)
}
func (q *FillPolyReq) Decode(r *Reader) {
	q.Drawable = ID(r.U32())
	q.Gc = ID(r.U32())
	q.Points = decodePoints(r)
}

// PolyFillRectangleReq fills rectangles.
type PolyFillRectangleReq struct {
	Drawable, Gc ID
	Rects        []Rect
}

func (q *PolyFillRectangleReq) Op() uint16 { return OpPolyFillRectangle }
func (q *PolyFillRectangleReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Drawable))
	w.PutU32(uint32(q.Gc))
	encodeRects(w, q.Rects)
}
func (q *PolyFillRectangleReq) Decode(r *Reader) {
	q.Drawable = ID(r.U32())
	q.Gc = ID(r.U32())
	q.Rects = decodeRects(r)
}

// PolyText8Req draws text with the GC foreground; the baseline is at
// (X, Y).
type PolyText8Req struct {
	Drawable, Gc ID
	X, Y         int16
	Text         string
}

func (q *PolyText8Req) Op() uint16 { return OpPolyText8 }
func (q *PolyText8Req) Encode(w *Writer) {
	w.PutU32(uint32(q.Drawable))
	w.PutU32(uint32(q.Gc))
	w.PutI16(q.X)
	w.PutI16(q.Y)
	w.PutString(q.Text)
}
func (q *PolyText8Req) Decode(r *Reader) {
	q.Drawable = ID(r.U32())
	q.Gc = ID(r.U32())
	q.X = r.I16()
	q.Y = r.I16()
	q.Text = r.String()
}

// ImageText8Req draws text filling the character cells with the GC
// background first.
type ImageText8Req struct {
	Drawable, Gc ID
	X, Y         int16
	Text         string
}

func (q *ImageText8Req) Op() uint16 { return OpImageText8 }
func (q *ImageText8Req) Encode(w *Writer) {
	w.PutU32(uint32(q.Drawable))
	w.PutU32(uint32(q.Gc))
	w.PutI16(q.X)
	w.PutI16(q.Y)
	w.PutString(q.Text)
}
func (q *ImageText8Req) Decode(r *Reader) {
	q.Drawable = ID(r.U32())
	q.Gc = ID(r.U32())
	q.X = r.I16()
	q.Y = r.I16()
	q.Text = r.String()
}

// AllocColorReq allocates a color from 16-bit RGB components.
type AllocColorReq struct{ R, G, B uint16 }

func (q *AllocColorReq) Op() uint16 { return OpAllocColor }
func (q *AllocColorReq) Encode(w *Writer) {
	w.PutU16(q.R)
	w.PutU16(q.G)
	w.PutU16(q.B)
}
func (q *AllocColorReq) Decode(r *Reader) {
	q.R = r.U16()
	q.G = r.U16()
	q.B = r.U16()
}

// ColorReply carries an allocated pixel and its actual RGB.
type ColorReply struct {
	Found   bool
	Pixel   uint32
	R, G, B uint16
}

// Encode serializes the reply.
func (p *ColorReply) Encode(w *Writer) {
	w.PutBool(p.Found)
	w.PutU32(p.Pixel)
	w.PutU16(p.R)
	w.PutU16(p.G)
	w.PutU16(p.B)
}

// Decode deserializes the reply.
func (p *ColorReply) Decode(r *Reader) {
	p.Found = r.Bool()
	p.Pixel = r.U32()
	p.R = r.U16()
	p.G = r.U16()
	p.B = r.U16()
}

// AllocNamedColorReq allocates a color from the server's name database.
type AllocNamedColorReq struct{ Name string }

func (q *AllocNamedColorReq) Op() uint16       { return OpAllocNamedColor }
func (q *AllocNamedColorReq) Encode(w *Writer) { w.PutString(q.Name) }
func (q *AllocNamedColorReq) Decode(r *Reader) { q.Name = r.String() }

// CreateCursorReq creates a named cursor shape.
type CreateCursorReq struct {
	Cid   ID
	Shape string
}

func (q *CreateCursorReq) Op() uint16 { return OpCreateCursor }
func (q *CreateCursorReq) Encode(w *Writer) {
	w.PutU32(uint32(q.Cid))
	w.PutString(q.Shape)
}
func (q *CreateCursorReq) Decode(r *Reader) {
	q.Cid = ID(r.U32())
	q.Shape = r.String()
}

// BellReq rings the (simulated) bell.
type BellReq struct{}

func (q *BellReq) Op() uint16       { return OpBell }
func (q *BellReq) Encode(w *Writer) {}
func (q *BellReq) Decode(r *Reader) {}

// Fake input kinds for FakeInputReq (the simulator's XTEST stand-in).
const (
	FakeMotion uint8 = iota
	FakeButtonPress
	FakeButtonRelease
	FakeKeyPress
	FakeKeyRelease
)

// FakeInputReq injects synthetic user input at the server.
type FakeInputReq struct {
	Kind   uint8
	X, Y   int16  // for motion
	Detail uint32 // button number or keysym
}

func (q *FakeInputReq) Op() uint16 { return OpFakeInput }
func (q *FakeInputReq) Encode(w *Writer) {
	w.PutU8(q.Kind)
	w.PutI16(q.X)
	w.PutI16(q.Y)
	w.PutU32(q.Detail)
}
func (q *FakeInputReq) Decode(r *Reader) {
	q.Kind = r.U8()
	q.X = r.I16()
	q.Y = r.I16()
	q.Detail = r.U32()
}

// ScreenshotReq asks for a composited image of a window (or the whole
// screen when Window is None).
type ScreenshotReq struct{ Window ID }

func (q *ScreenshotReq) Op() uint16       { return OpScreenshot }
func (q *ScreenshotReq) Encode(w *Writer) { w.PutU32(uint32(q.Window)) }
func (q *ScreenshotReq) Decode(r *Reader) { q.Window = ID(r.U32()) }

// ScreenshotReply carries packed RGB pixels, row-major.
type ScreenshotReply struct {
	Width, Height uint16
	Pixels        []byte // 3 bytes per pixel, RGB
}

// Encode serializes the reply.
func (p *ScreenshotReply) Encode(w *Writer) {
	w.PutU16(p.Width)
	w.PutU16(p.Height)
	w.PutBytes(p.Pixels)
}

// AppendScreenshotPixels encodes a ScreenshotReply's fixed fields and
// pixel-length prefix, then returns the raw pixelLen-byte pixel area
// for the caller to pack RGB triples into directly — the same wire
// bytes Encode produces, without staging the pixels in an intermediate
// slice. The returned slice is only valid until the next Writer call.
func AppendScreenshotPixels(w *Writer, width, height uint16, pixelLen int) []byte {
	w.PutU16(width)
	w.PutU16(height)
	w.PutU32(uint32(pixelLen))
	return w.AppendRaw(pixelLen)
}

// Decode deserializes the reply.
func (p *ScreenshotReply) Decode(r *Reader) {
	p.Width = r.U16()
	p.Height = r.U16()
	p.Pixels = append([]byte(nil), r.ByteSlice()...)
}

// PingReq is an empty round trip, used for synchronization.
type PingReq struct{}

func (q *PingReq) Op() uint16       { return OpPing }
func (q *PingReq) Encode(w *Writer) {}
func (q *PingReq) Decode(r *Reader) {}

// EmptyReply is a reply with no payload (Ping).
type EmptyReply struct{}

// Encode serializes the reply.
func (p *EmptyReply) Encode(w *Writer) {}

// Decode deserializes the reply.
func (p *EmptyReply) Decode(r *Reader) {}

// AttachSessionReq selects a virtual display on a session-multiplexing
// server (the farm handshake, docs/farm.md). A client sends it as its
// very first frame — before the server's setup block — to name the
// session it wants; the farm routes the connection to that session's
// server, which then sends its setup block as usual. The empty name
// selects the default session. A plain single-display server consumes
// the frame without assigning it a sequence number, so a session-aware
// client can speak to either kind of server.
type AttachSessionReq struct{ Session string }

func (q *AttachSessionReq) Op() uint16       { return OpAttachSession }
func (q *AttachSessionReq) Encode(w *Writer) { w.PutString(q.Session) }
func (q *AttachSessionReq) Decode(r *Reader) { q.Session = r.String() }

// IDRange is the size of a connection's block of resource IDs: it names
// its resources from ResourceIDBase to ResourceIDBase+IDRange-1.
const IDRange = 0x00200000

// SetupReply is sent once by the server immediately after a connection is
// accepted (the analogue of the X11 connection setup block).
type SetupReply struct {
	ResourceIDBase uint32
	Root           ID
	Width, Height  uint16
}

// Encode serializes the setup block.
func (p *SetupReply) Encode(w *Writer) {
	w.PutU32(p.ResourceIDBase)
	w.PutU32(uint32(p.Root))
	w.PutU16(p.Width)
	w.PutU16(p.Height)
}

// Decode deserializes the setup block.
func (p *SetupReply) Decode(r *Reader) {
	p.ResourceIDBase = r.U32()
	p.Root = ID(r.U32())
	p.Width = r.U16()
	p.Height = r.U16()
}
