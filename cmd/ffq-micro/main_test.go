package main

import (
	"strings"
	"testing"

	"ffq/internal/experiments"
)

func TestPickFigures(t *testing.T) {
	figs := experiments.Figures(experiments.QuickOptions(), 1)
	all, err := pickFigures(figs, "all")
	if err != nil || len(all) != len(figs) {
		t.Fatalf(`"all" picked %d of %d figures (err %v)`, len(all), len(figs), err)
	}
	one, err := pickFigures(figs, "7-latency")
	if err != nil || len(one) != 1 || one[0].Name != "7-latency" {
		t.Fatalf(`"7-latency" picked %v (err %v)`, one, err)
	}
}

// TestPickFiguresUnknown: an unknown name is an error that lists every
// valid name, not a silent fallback to some figure.
func TestPickFiguresUnknown(t *testing.T) {
	figs := experiments.Figures(experiments.QuickOptions(), 1)
	got, err := pickFigures(figs, "9")
	if err == nil {
		t.Fatalf(`"9" picked %d figure(s), want an error`, len(got))
	}
	for _, f := range figs {
		if !strings.Contains(err.Error(), f.Name) {
			t.Errorf("error %q does not list figure %q", err, f.Name)
		}
	}
	if !strings.Contains(err.Error(), "all") {
		t.Errorf("error %q does not list \"all\"", err)
	}
}
