package analysis_test

import (
	"testing"

	"clickpass/internal/analysis"
	"clickpass/internal/core"
	"clickpass/internal/dataset"
	"clickpass/internal/imagegen"
	"clickpass/internal/study"
)

// BenchmarkTablesScale20 replays Tables 1 and 2 over field studies 20×
// the paper's size on every gallery image (about 49,000 logins). At
// this size a per-login cost that grows with the password count shows
// as a several-fold slowdown, which paper-scale tests cannot see.
func BenchmarkTablesScale20(b *testing.B) {
	var dsets []*dataset.Dataset
	logins := 0
	for i, img := range imagegen.Gallery() {
		cfg := study.FieldConfig(img, uint64(100+i))
		cfg.Passwords *= 20
		d, err := study.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		dsets = append(dsets, d)
		logins += len(d.Logins)
	}
	for b.Loop() {
		if _, err := analysis.Table1(dsets, core.MostCentered, 42, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := analysis.Table2(dsets, core.MostCentered, 42, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*logins), "ns/login")
}
