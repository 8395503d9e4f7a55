package xproto

import "strconv"

// opNames maps every request opcode to its protocol name. The
// tkcheck opcode-completeness analyzer cross-checks this table against
// the Op constants, the NewRequest factory and the server dispatch
// switch, so adding an opcode without naming it fails `make check`.
var opNames = map[uint16]string{
	OpCreateWindow:           "CreateWindow",
	OpChangeWindowAttributes: "ChangeWindowAttributes",
	OpDestroyWindow:          "DestroyWindow",
	OpMapWindow:              "MapWindow",
	OpUnmapWindow:            "UnmapWindow",
	OpConfigureWindow:        "ConfigureWindow",
	OpGetGeometry:            "GetGeometry",
	OpQueryTree:              "QueryTree",
	OpInternAtom:             "InternAtom",
	OpGetAtomName:            "GetAtomName",
	OpChangeProperty:         "ChangeProperty",
	OpDeleteProperty:         "DeleteProperty",
	OpGetProperty:            "GetProperty",
	OpListProperties:         "ListProperties",
	OpSetSelectionOwner:      "SetSelectionOwner",
	OpGetSelectionOwner:      "GetSelectionOwner",
	OpConvertSelection:       "ConvertSelection",
	OpSendEvent:              "SendEvent",
	OpQueryPointer:           "QueryPointer",
	OpSetInputFocus:          "SetInputFocus",
	OpGetInputFocus:          "GetInputFocus",
	OpOpenFont:               "OpenFont",
	OpCloseFont:              "CloseFont",
	OpQueryFont:              "QueryFont",
	OpQueryTextExtents:       "QueryTextExtents",
	OpCreatePixmap:           "CreatePixmap",
	OpFreePixmap:             "FreePixmap",
	OpCreateGC:               "CreateGC",
	OpChangeGC:               "ChangeGC",
	OpFreeGC:                 "FreeGC",
	OpClearArea:              "ClearArea",
	OpCopyArea:               "CopyArea",
	OpPolyLine:               "PolyLine",
	OpPolySegment:            "PolySegment",
	OpPolyRectangle:          "PolyRectangle",
	OpFillPoly:               "FillPoly",
	OpPolyFillRectangle:      "PolyFillRectangle",
	OpPolyText8:              "PolyText8",
	OpImageText8:             "ImageText8",
	OpAllocColor:             "AllocColor",
	OpAllocNamedColor:        "AllocNamedColor",
	OpCreateCursor:           "CreateCursor",
	OpBell:                   "Bell",
	OpFakeInput:              "FakeInput",
	OpScreenshot:             "Screenshot",
	OpPing:                   "Ping",
	OpAttachSession:          "AttachSession",
	OpUpgradeWire:            "UpgradeWire",
	OpWireSeg:                "WireSeg",
}

// OpName returns the protocol name of a request opcode ("CreateWindow"),
// or "op<N>" for an unknown opcode.
func OpName(op uint16) string {
	if name, ok := opNames[op]; ok {
		return name
	}
	return "op" + strconv.FormatUint(uint64(op), 10)
}
