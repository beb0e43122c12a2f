// Package sx4lint assembles the repository's analyzer suite: the one
// list cmd/sx4lint and the self-check test share.
package sx4lint

import (
	"sx4bench/internal/analysis"
	"sx4bench/internal/analysis/detflow"
	"sx4bench/internal/analysis/floatorder"
	"sx4bench/internal/analysis/goldenfmt"
	"sx4bench/internal/analysis/layering"
	"sx4bench/internal/analysis/lockshare"
	"sx4bench/internal/analysis/maporder"
	"sx4bench/internal/analysis/noclock"
	"sx4bench/internal/analysis/seededrand"
)

// Analyzers returns the full suite in stable order: the five
// per-package syntactic checks from sx4lint v1, then the three
// interprocedural v2 analyzers (detflow is the only fact producer).
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		noclock.Analyzer,
		seededrand.Analyzer,
		layering.Analyzer,
		maporder.Analyzer,
		goldenfmt.Analyzer,
		detflow.Analyzer,
		lockshare.Analyzer,
		floatorder.Analyzer,
	}
}
