package mapping

import (
	"reflect"
	"runtime"
	"testing"
)

// FuzzParseTemplate checks the template parser on arbitrary input: it
// never panics, allocates in proportion to its input, and every
// template it accepts prints (String) as text that parses back to the
// same template.
func FuzzParseTemplate(f *testing.F) {
	for _, s := range []string{
		"http://siemens.com/turbine/{tid}",
		"{val}",
		"http://e.org/{a}/{b}-{c}",
		"x}{y}z",
		"{a{b}c",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tmpl, err := ParseTemplate(src)
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(src)+64<<10); grew > bound {
			t.Fatalf("parsing %d bytes allocated %d, bound %d", len(src), grew, bound)
		}
		if err != nil {
			return
		}
		text := tmpl.String()
		again, err := ParseTemplate(text)
		if err != nil {
			t.Fatalf("ParseTemplate(%q) prints %q, which does not parse: %v", src, text, err)
		}
		if !reflect.DeepEqual(again, tmpl) {
			t.Fatalf("ParseTemplate(%q) prints %q, which parses as %#v, not %#v", src, text, again, tmpl)
		}
	})
}
