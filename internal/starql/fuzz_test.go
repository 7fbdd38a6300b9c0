package starql

import (
	"testing"

	"repro/internal/siemens"
)

// FuzzParseSTARQL checks that no input panics the STARQL parser. The
// corpus is seeded with Figure 1 and the twenty catalog tasks.
func FuzzParseSTARQL(f *testing.F) {
	f.Add(figure1)
	for _, task := range siemens.Catalog() {
		f.Add(task.Query)
	}
	f.Fuzz(func(t *testing.T, src string) {
		Parse(src)
	})
}
