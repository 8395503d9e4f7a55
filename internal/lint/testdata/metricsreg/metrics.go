// Package fixtures exercises the metrics-registry analyzer: literal
// names, a package const, a one-level wrapper, the "prefix."+expr
// pattern, an undocumented name, and a dynamic name it cannot check.
package fixtures

type counter struct{}

func (counter) Inc() {}

type histogram struct{}

func (histogram) Observe(v int64) {}

type registry struct{}

func (registry) Counter(name string) counter     { return counter{} }
func (registry) Histogram(name string) histogram { return histogram{} }

const ctrConst = "documented.const"

// bump forwards a name into the registry: its call sites name metrics.
func (r registry) bump(name string) {
	r.Counter(name).Inc()
}

func record(r registry, opName func() string) {
	r.Counter("documented.count").Inc()
	r.Histogram("documented.lat").Observe(1)
	r.Counter(ctrConst).Inc()
	r.Counter("requests." + opName()).Inc()
	r.bump("documented.wrapped")
	r.Counter("undocumented.count").Inc()
}

func recordDynamic(r registry, suffix string) {
	r.Counter(suffix + ".made.up").Inc()
}

// docPrefix + "joined" is a constant expression, so its name is checked
// against the registry like a literal.
const docPrefix = "documented."

func recordJoined(r registry) {
	r.Counter(docPrefix + "joined").Inc()
}
