package main

import (
	_ "embed"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/tcl"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

var (
	//go:embed compute.tcl
	computeTcl string
	//go:embed browser.tcl
	browserTcl string
	//go:embed buttons.tcl
	buttonsTcl string
	//go:embed slides.tcl
	slidesTcl string
)

// A workload is one kind of user-visible operation. setup builds a cold
// instance (server, application, widgets and procs) whose inputs all
// come from the seed. README.md gives the reason for each workload.
type workload struct {
	name  string
	setup func(seed int64) (instance, error)
}

var workloads = []workload{
	{"tcl", newTclBench},
	{"keypress", newKeypressBench},
	{"buttons50", newButtonsBench},
	{"send", newSendBench},
	{"slides", func(seed int64) (instance, error) { return newSlidesBench(seed, false) }},
	{"remote", func(seed int64) (instance, error) { return newSlidesBench(seed, true) }},
}

// An instance is one set-up workload. op runs operation i and checks its
// output; the benchmark times it. verify is the untimed end-of-phase
// oracle; its fingerprint must not change when tracing is turned on.
type instance interface {
	op(p *probe, i int) error
	verify() (fingerprint string, err error)
	// traceOn attaches tr to every layer the workload drives, peer to a
	// second application's event loop (send only), and onCmd to every
	// interpreter as its command hook.
	traceOn(tr, peer *trace.Tracer, onCmd func([]string))
	interp() *tcl.Interp
	registries() layerRegs
	close()
}

// layerRegs are the metric registries a workload's layers record into:
// one per client connection, the display server's, and a farm's.
type layerRegs struct {
	clients []*obs.Registry
	server  *obs.Registry
	farm    *obs.Registry
}

const letters = "abcdefghijklmnopqrstuvwxyz"

func randWord(rng *rand.Rand, minLen, maxLen int) string {
	b := make([]byte, minLen+rng.Intn(maxLen-minLen+1))
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

func randWords(rng *rand.Rand, n, minLen, maxLen int) []string {
	words := make([]string, n)
	for i := range words {
		words[i] = randWord(rng, minLen, maxLen)
	}
	return words
}

// newApp builds an application on a private in-process server and loads
// a script into it.
func newApp(script string) (*core.App, error) {
	app, err := core.NewApp(core.Options{Name: "tkbench"})
	if err != nil {
		return nil, err
	}
	if _, err := app.Eval(script); err != nil {
		app.Close()
		return nil, err
	}
	return app, nil
}

// traceApp attaches a tracer to an application's toolkit, client and
// server halves.
func traceApp(app *core.App, srv *xserver.Server, tr *trace.Tracer, onCmd func([]string)) {
	srv.SetTracer(tr)
	app.Disp.SetTracer(tr)
	app.Spans = tr
	app.Interp.Trace = onCmd
}

// --- tcl ---------------------------------------------------------------

type tclBench struct {
	in  *tcl.Interp
	rng *rand.Rand
}

func newTclBench(seed int64) (instance, error) {
	in := tcl.New()
	if _, err := in.Eval(computeTcl); err != nil {
		return nil, fmt.Errorf("compute.tcl: %w", err)
	}
	return &tclBench{in: in, rng: rand.New(rand.NewSource(seed))}, nil
}

func (b *tclBench) op(p *probe, i int) error {
	x := b.rng.Int63n(1 << 31)
	n := 140 + b.rng.Intn(20)
	word := randWord(b.rng, 4, 16)
	script := fmt.Sprintf("checksum %d %d %s", x, n, word)
	got, err := p.eval(b.in, script)
	if err != nil {
		return err
	}
	if want := strconv.FormatInt(checksum(x, n, word), 10); got != want {
		return fmt.Errorf("%s = %s, want %s", script, got, want)
	}
	return nil
}

// checksum is compute.tcl's checksum proc in Go: the tcl workload's
// oracle.
func checksum(x int64, n int, word string) int64 {
	xs := make([]int64, n)
	for i := range xs {
		x = (x*1103515245 + 12345) % 2147483648
		xs[i] = x % 1000
	}
	var sum int64
	for _, v := range xs {
		if v%3 == 0 {
			sum += v
		} else {
			sum ^= v
		}
	}
	var acc int64
	for i := 0; i < len(xs); i += 3 {
		acc = (acc*31 + xs[i]) % 1000003
	}
	up := strings.ToUpper(word)
	var vowels int64
	for _, c := range up {
		if strings.ContainsRune("AEIOU", c) {
			vowels++
		}
	}
	return sum + acc + int64(len(up))*1000 + vowels
}

func (b *tclBench) verify() (string, error) { return "", nil }

func (b *tclBench) traceOn(_, _ *trace.Tracer, onCmd func([]string)) { b.in.Trace = onCmd }

func (b *tclBench) interp() *tcl.Interp { return b.in }

func (b *tclBench) registries() layerRegs { return layerRegs{} }

func (b *tclBench) close() {}

// --- keypress ----------------------------------------------------------

// keypressBench types into the browser's text widget. keys holds the
// rest of the current edit; lines, line and col model the widget's text
// and insertion cursor, key by key.
type keypressBench struct {
	app       *core.App
	rng       *rand.Rand
	keys      []xproto.Keysym
	lines     []string
	line, col int
}

func newKeypressBench(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	app, err := newApp(browserTcl)
	if err != nil {
		return nil, err
	}
	// The seed picks the words; the shape of the text (16 paragraphs of a
	// heading, three body lines and a keyword) is fixed, so that the cost
	// of a key press does not depend on the seed.
	var script, text strings.Builder
	script.WriteString("browser .b\n")
	for para := 0; para < 16; para++ {
		heading := strings.Join(randWords(rng, 2, 3, 9), " ") + "\n"
		body := ""
		for l := 0; l < 3; l++ {
			body += strings.Join(randWords(rng, 6, 2, 8), " ") + "\n"
		}
		keyword := randWord(rng, 4, 10) + "\n"
		script.WriteString(tcl.FormatList([]string{"insertWithTags", ".b.t", heading, "heading"}) + "\n")
		script.WriteString(tcl.FormatList([]string{"insertWithTags", ".b.t", body}) + "\n")
		script.WriteString(tcl.FormatList([]string{"insertWithTags", ".b.t", keyword, "keyword"}) + "\n")
		text.WriteString(heading + body + keyword)
	}
	script.WriteString(".b.t mark set insert 1.0\n")
	if _, err := app.Eval(script.String()); err != nil {
		app.Close()
		return nil, err
	}
	app.Update()
	return &keypressBench{app: app, rng: rng, lines: strings.Split(text.String(), "\n")}, nil
}

var arrows = []xproto.Keysym{xproto.KsLeft, xproto.KsRight, xproto.KsUp, xproto.KsDown}

// nextKey draws the keys an edit at a time. An edit moves the cursor
// with one to five arrows (reads), types one to six letters, one time in
// ten followed by Return (writes), and deletes them again with
// BackSpace. Every edit leaves the text as it found it, so the shape of
// the document, and with it the cost of a key, does not drift with the
// seed over a long run. The mix is ~35% writes, ~35% BackSpace and ~30%
// arrows.
func (b *keypressBench) nextKey() xproto.Keysym {
	if len(b.keys) == 0 {
		for n := 1 + b.rng.Intn(5); n > 0; n-- {
			b.keys = append(b.keys, arrows[b.rng.Intn(len(arrows))])
		}
		typed := 1 + b.rng.Intn(6)
		for k := 0; k < typed; k++ {
			b.keys = append(b.keys, xproto.Keysym(letters[b.rng.Intn(len(letters))]))
		}
		if b.rng.Intn(10) == 0 {
			b.keys = append(b.keys, xproto.KsReturn)
			typed++
		}
		for k := 0; k < typed; k++ {
			b.keys = append(b.keys, xproto.KsBackSpace)
		}
	}
	ks := b.keys[0]
	b.keys = b.keys[1:]
	return ks
}

func (b *keypressBench) op(p *probe, i int) error {
	ks := b.nextKey()
	p.fakeKey(b.app.Disp, ks)
	p.update(b.app.App)
	b.apply(ks)
	got, err := b.app.Eval("lindex [.b.status configure -text] 4")
	if err != nil {
		return err
	}
	if want := fmt.Sprintf("%d.%d", b.line+1, b.col); got != want {
		return fmt.Errorf("after key %s the status line reads %q, want %q", xproto.KeysymName(ks), got, want)
	}
	return nil
}

// apply moves the model the way the text widget handles ks.
func (b *keypressBench) apply(ks xproto.Keysym) {
	cur := b.lines[b.line]
	switch ks {
	case xproto.KsBackSpace:
		if b.col > 0 {
			b.lines[b.line] = cur[:b.col-1] + cur[b.col:]
			b.col--
		} else if b.line > 0 {
			prev := b.lines[b.line-1]
			b.lines[b.line-1] = prev + cur
			b.lines = append(b.lines[:b.line], b.lines[b.line+1:]...)
			b.line--
			b.col = len(prev)
		}
	case xproto.KsLeft:
		if b.col > 0 {
			b.col--
		} else if b.line > 0 {
			b.line--
			b.col = len(b.lines[b.line])
		}
	case xproto.KsRight:
		if b.col < len(cur) {
			b.col++
		} else if b.line < len(b.lines)-1 {
			b.line++
			b.col = 0
		}
	case xproto.KsUp:
		if b.line > 0 {
			b.line--
			b.col = min(b.col, len(b.lines[b.line]))
		}
	case xproto.KsDown:
		if b.line < len(b.lines)-1 {
			b.line++
			b.col = min(b.col, len(b.lines[b.line]))
		}
	case xproto.KsReturn:
		b.lines = slices.Insert(b.lines, b.line+1, cur[b.col:])
		b.lines[b.line] = cur[:b.col]
		b.line++
		b.col = 0
	default:
		b.lines[b.line] = cur[:b.col] + string(rune(ks)) + cur[b.col:]
		b.col++
	}
}

func (b *keypressBench) verify() (string, error) {
	got, err := b.app.Eval(".b.t get 1.0 end")
	if err != nil {
		return "", err
	}
	if want := strings.Join(b.lines, "\n"); got != want {
		return "", fmt.Errorf("text widget holds %d bytes that differ from the %d-byte model of the keys typed", len(got), len(want))
	}
	return "", nil
}

func (b *keypressBench) traceOn(tr, _ *trace.Tracer, onCmd func([]string)) {
	traceApp(b.app, b.app.Server, tr, onCmd)
}

func (b *keypressBench) interp() *tcl.Interp { return b.app.Interp }

func (b *keypressBench) registries() layerRegs {
	return layerRegs{clients: []*obs.Registry{b.app.Metrics()}, server: b.app.Server.Metrics()}
}

func (b *keypressBench) close() { b.app.Close() }

// --- buttons50 ---------------------------------------------------------

// buttonsBench holds the window counts before any operation: every
// operation must leave them unchanged.
type buttonsBench struct {
	app                *core.App
	rng                *rand.Rand
	rootKids, mainKids int
	children           string
}

func newButtonsBench(seed int64) (instance, error) {
	app, err := newApp(buttonsTcl)
	if err != nil {
		return nil, err
	}
	app.Update()
	b := &buttonsBench{app: app, rng: rand.New(rand.NewSource(seed))}
	if b.rootKids, b.mainKids, b.children, err = b.windowCounts(); err != nil {
		app.Close()
		return nil, err
	}
	return b, nil
}

func (b *buttonsBench) windowCounts() (rootKids, mainKids int, children string, err error) {
	d := b.app.Disp
	root, err := d.QueryTree(d.Root)
	if err != nil {
		return 0, 0, "", err
	}
	main, err := d.QueryTree(b.app.Main.XID)
	if err != nil {
		return 0, 0, "", err
	}
	children, err = b.app.Eval("winfo children .")
	return len(root.Children), len(main.Children), children, err
}

func (b *buttonsBench) op(p *probe, i int) error {
	labels := randWords(b.rng, 50, 3, 14)
	if _, err := p.eval(b.app, tcl.FormatList([]string{"fifty", tcl.FormatList(labels)})); err != nil {
		return err
	}
	p.update(b.app.App)
	if _, err := p.eval(b.app, "destroy .f"); err != nil {
		return err
	}
	p.update(b.app.App)
	rootKids, mainKids, children, err := b.windowCounts()
	if err != nil {
		return err
	}
	if rootKids != b.rootKids || mainKids != b.mainKids || children != b.children {
		return fmt.Errorf("windows leaked: root has %d children (want %d), main window %d (want %d), winfo children . = %q (want %q)",
			rootKids, b.rootKids, mainKids, b.mainKids, children, b.children)
	}
	return nil
}

func (b *buttonsBench) verify() (string, error) { return "", nil }

func (b *buttonsBench) traceOn(tr, _ *trace.Tracer, onCmd func([]string)) {
	traceApp(b.app, b.app.Server, tr, onCmd)
}

func (b *buttonsBench) interp() *tcl.Interp { return b.app.Interp }

func (b *buttonsBench) registries() layerRegs {
	return layerRegs{clients: []*obs.Registry{b.app.Metrics()}, server: b.app.Server.Metrics()}
}

func (b *buttonsBench) close() { b.app.Close() }

// --- send --------------------------------------------------------------

// sendBench sends seeded increments to a second application on the same
// server, whose event loop runs in the background. sum is the counter
// value the target must report.
type sendBench struct {
	srv            *xserver.Server
	sender, target *core.App
	stop           func()
	rng            *rand.Rand
	sum            int
}

func newSendBench(seed int64) (instance, error) {
	srv := xserver.New(800, 600)
	sender, err := core.NewAppOnServer(srv, "tkbench", nil)
	if err != nil {
		srv.Close()
		return nil, err
	}
	target, err := core.NewAppOnServer(srv, "target", nil)
	if err != nil {
		sender.Close()
		srv.Close()
		return nil, err
	}
	if _, err := target.Eval("set n 0"); err != nil {
		target.Close()
		sender.Close()
		srv.Close()
		return nil, err
	}
	return &sendBench{srv: srv, sender: sender, target: target, stop: target.StartServing(),
		rng: rand.New(rand.NewSource(seed))}, nil
}

func (b *sendBench) op(p *probe, i int) error {
	k := 1 + b.rng.Intn(9)
	got, err := p.send(b.sender.App, "target", "incr n "+strconv.Itoa(k))
	if err != nil {
		return err
	}
	b.sum += k
	if want := strconv.Itoa(b.sum); got != want {
		return fmt.Errorf("send target {incr n %d} = %q, want %q", k, got, want)
	}
	return nil
}

func (b *sendBench) verify() (string, error) { return "", nil }

// traceOn pauses the target's event loop while its fields change: the
// loop reads them on its own goroutine.
func (b *sendBench) traceOn(tr, peer *trace.Tracer, onCmd func([]string)) {
	traceApp(b.sender, b.srv, tr, onCmd)
	b.stop()
	b.target.Spans = peer
	b.target.Interp.Trace = onCmd
	b.stop = b.target.StartServing()
}

func (b *sendBench) interp() *tcl.Interp { return b.sender.Interp }

func (b *sendBench) registries() layerRegs {
	return layerRegs{clients: []*obs.Registry{b.sender.Metrics(), b.target.Metrics()}, server: b.srv.Metrics()}
}

func (b *sendBench) close() {
	b.stop()
	b.target.Close()
	b.sender.Close()
	b.srv.Close()
}

// --- slides and remote -------------------------------------------------

// deck is a seeded slide deck: the defslide script, and each slide's
// name.
type deck struct {
	script string
	names  []string
}

// Every slide has itemsPerSlide items, a quarter of each kind, so the
// work of a slide change does not depend on the seed.
const (
	slidesPerDeck = 10
	itemsPerSlide = 40
)

var palette = []string{"red", "navy", "forestgreen", "gold", "orange", "purple",
	"steelblue", "firebrick", "black", "gray", "khaki", "seagreen"}

func newDeck(rng *rand.Rand) deck {
	var d deck
	var sb strings.Builder
	for s := 0; s < slidesPerDeck; s++ {
		name := "s" + strconv.Itoa(s)
		fmt.Fprintf(&sb, "defslide %s {\n", name)
		for it, kind := range rng.Perm(itemsPerSlide) {
			fill := palette[rng.Intn(len(palette))]
			x, y := rng.Intn(440), rng.Intn(330)
			switch kind % 4 {
			case 0:
				text := strings.Join(randWords(rng, 1+rng.Intn(4), 2, 9), " ")
				fmt.Fprintf(&sb, "drawitem i%d text %d %d -text {%s} -fill %s\n", it, x, y, text, fill)
			case 1:
				fmt.Fprintf(&sb, "drawitem i%d rectangle %d %d %d %d -fill %s\n", it, x, y, x+4+rng.Intn(120), y+4+rng.Intn(80), fill)
			case 2:
				fmt.Fprintf(&sb, "drawitem i%d line %d %d %d %d %d %d -fill %s -width %d\n", it,
					x, y, rng.Intn(480), rng.Intn(360), rng.Intn(480), rng.Intn(360), fill, 1+rng.Intn(4))
			default:
				fmt.Fprintf(&sb, "drawitem i%d polygon %d %d %d %d %d %d -fill %s\n", it,
					x, y, x+10+rng.Intn(60), y+rng.Intn(50), x+rng.Intn(40), y+10+rng.Intn(60), fill)
			}
		}
		sb.WriteString("}\n")
		d.names = append(d.names, name)
	}
	d.script = sb.String()
	return d
}

// slidesBench flips through the deck. The local variant runs on a
// private server over an in-process pipe with wire v1; the remote one
// attaches a session of a farm over loopback TCP, configured like xsimd:
// wire v2 and 1 ms of latency per wire segment.
type slidesBench struct {
	app    *core.App
	srv    *xserver.Server // the display server: private, or the farm session's
	farm   *xserver.Farm   // remote only
	remote bool
	seed   int64
	deck   deck
	rng    *rand.Rand
}

// remoteSegmentLatency is the simulated one-way cost of each wire
// segment on the remote workload.
const remoteSegmentLatency = time.Millisecond

func newSlidesBench(seed int64, remote bool) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	b := &slidesBench{remote: remote, seed: seed, deck: newDeck(rng), rng: rng}
	var err error
	if remote {
		b.farm = xserver.NewFarm(xserver.FarmOptions{Configure: func(s *xserver.Server) {
			s.SetLatencyModel(xserver.LatencyPerSegment)
			s.SetLatency(remoteSegmentLatency)
			s.SetWireV2(true)
		}})
		var addr string
		if addr, err = b.farm.Listen("127.0.0.1:0"); err == nil {
			b.app, err = core.NewApp(core.Options{Name: "tkbench", Display: addr, Session: "tkbench", WireV2: true})
		}
		if err == nil {
			sess, ok := b.farm.Lookup("tkbench")
			if !ok {
				err = fmt.Errorf("farm has no session tkbench after attach")
			} else {
				b.srv = sess.Server()
			}
		}
	} else {
		b.app, err = core.NewApp(core.Options{Name: "tkbench"})
		if err == nil {
			b.srv = b.app.Server
		}
	}
	if err == nil {
		_, err = b.app.Eval(slidesTcl + b.deck.script)
	}
	if err != nil {
		b.close()
		return nil, err
	}
	b.app.Update()
	return b, nil
}

func (b *slidesBench) show(p *probe, k int) error {
	if _, err := p.eval(b.app, "slide_"+b.deck.names[k]); err != nil {
		return err
	}
	p.update(b.app.App)
	got, err := b.app.Eval("llength [.c find withtag all]")
	if err != nil {
		return err
	}
	if want := strconv.Itoa(itemsPerSlide); got != want {
		return fmt.Errorf("slide %s shows %s items, want %s", b.deck.names[k], got, want)
	}
	return nil
}

func (b *slidesBench) op(p *probe, i int) error {
	return b.show(p, b.rng.Intn(len(b.deck.names)))
}

// verify shows every slide in deck order and returns the CRC-32 of each
// canvas screenshot.
func (b *slidesBench) verify() (string, error) {
	p := &probe{}
	canvas, err := b.app.NameToWindow(".c")
	if err != nil {
		return "", err
	}
	crcs := make([]string, len(b.deck.names))
	for k := range b.deck.names {
		if err := b.show(p, k); err != nil {
			return "", err
		}
		shot, err := b.app.Disp.Screenshot(canvas.XID)
		if err != nil {
			return "", err
		}
		crcs[k] = fmt.Sprintf("%08x", crc32.ChecksumIEEE(shot.Pixels))
	}
	return strings.Join(crcs, " "), nil
}

// reference builds the other variant of this deck (remote for slides,
// local for remote) and returns its screenshot CRCs: the wire v1 ≡ v2
// and farm ≡ plain server oracle.
func (b *slidesBench) reference() (string, error) {
	ref, err := newSlidesBench(b.seed, !b.remote)
	if err != nil {
		return "", err
	}
	defer ref.close()
	return ref.verify()
}

func (b *slidesBench) traceOn(tr, _ *trace.Tracer, onCmd func([]string)) {
	traceApp(b.app, b.srv, tr, onCmd)
}

func (b *slidesBench) interp() *tcl.Interp { return b.app.Interp }

func (b *slidesBench) registries() layerRegs {
	r := layerRegs{clients: []*obs.Registry{b.app.Metrics()}, server: b.srv.Metrics()}
	if b.farm != nil {
		r.farm = b.farm.Metrics()
	}
	return r
}

func (b *slidesBench) close() {
	if b.app != nil {
		b.app.Close()
	}
	if b.farm != nil {
		b.farm.Close()
	}
}
